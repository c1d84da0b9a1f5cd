package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"sync"
	"testing"

	"sttsim/internal/fault"
	"sttsim/internal/mem"
	"sttsim/internal/workload"
)

// clearTagImages empties the process's tag-image memo, so the next New of
// any key builds its image cold.
func clearTagImages() {
	tagImages.mu.Lock()
	defer tagImages.mu.Unlock()
	tagImages.entries = nil
	tagImages.bytes = 0
}

// storedImages deep-copies the images m holds, and checks its byte
// accounting on the way.
func storedImages(t *testing.T, m *imageMemo) map[imageKey][]uint64 {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[imageKey][]uint64)
	total := 0
	for k, e := range m.entries {
		out[k] = slices.Clone(e.words)
		total += 8 * len(e.words)
	}
	if total != m.bytes || total > m.budget {
		t.Fatalf("memo holds %d bytes, accounts %d, budget %d", total, m.bytes, m.budget)
	}
	return out
}

func resultJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// tinyCfg is a run short enough to repeat many times.
func tinyCfg(s Scheme, bench string) Config {
	cfg := quickCfg(s, bench)
	cfg.WarmupCycles, cfg.MeasureCycles = 200, 800
	return cfg
}

// TestTagImageHitMatchesCold: a run whose tag image comes from the memo gives
// the same Result bytes as a cold build, and leaves the stored image
// bit-identical — for every registered tech profile in both sharing modes,
// explicit hybrid banks, a 4x4x2 mesh, and a write-error campaign that
// invalidates lines.
func TestTagImageHitMatchesCold(t *testing.T) {
	cases := map[string]Config{}
	for _, name := range mem.ProfileNames() {
		for _, bench := range []string{"tpcc", "milc"} {
			cfg := tinyCfg(SchemeSTT4TSBWB, bench)
			cfg.TechProfile = name
			cases[name+"/"+bench] = cfg
		}
	}
	hybrid := tinyCfg(SchemeSTT64TSB, "tpcc")
	hybrid.HybridSRAMBanks = 5
	cases["hybrid5"] = hybrid
	mesh := tinyCfg(SchemeSTT4TSBRCA, "tpcc")
	mesh.MeshX, mesh.MeshY, mesh.Layers, mesh.Regions = 4, 4, 2, 4
	cases["4x4x2"] = mesh
	faulty := tinyCfg(SchemeSTT64TSB, "tpcc")
	faulty.Fault = &fault.Config{WriteErrorRate: 0.5, MaxWriteRetries: 1}
	cases["write-errors"] = faulty
	if testing.Short() {
		for name := range cases {
			if name != "sttram/tpcc" && name != "sram/milc" && name != "hybrid5" && name != "write-errors" {
				delete(cases, name)
			}
		}
	}

	for name, cfg := range cases {
		clearTagImages()
		cold := resultJSON(t, cfg)
		stored := storedImages(t, &tagImages)
		if want := cfg.Topology().NumBanks(); len(stored) != want {
			t.Fatalf("%s: the cold run stored %d bank images, want %d", name, len(stored), want)
		}
		if hit := resultJSON(t, cfg); !bytes.Equal(hit, cold) {
			t.Errorf("%s: memo-hit result differs from the cold build's", name)
		}
		if !reflect.DeepEqual(storedImages(t, &tagImages), stored) {
			t.Errorf("%s: a run changed the stored tag image", name)
		}
		if cfg.Fault != nil {
			var res Result
			if err := json.Unmarshal(cold, &res); err != nil {
				t.Fatal(err)
			}
			if res.Fault == nil || res.Fault.LinesInvalidated == 0 {
				t.Errorf("%s: the campaign invalidated no lines", name)
			}
		}
	}
}

// TestTagImageConcurrentColdBuilds: goroutines building simulators of the
// same key and of different keys at once, all on an empty memo, get the
// results a sequential cold build gives, and the memo ends within its
// budget holding one image per bank of each key. Under -race this is the
// memo's data-race check.
func TestTagImageConcurrentColdBuilds(t *testing.T) {
	small := func(bench, profile string) Config {
		cfg := tinyCfg(SchemeSTT4TSBWB, bench)
		cfg.MeshX, cfg.MeshY, cfg.Layers, cfg.Regions = 4, 4, 2, 4
		cfg.WarmupCycles, cfg.MeasureCycles = 50, 150
		cfg.TechProfile = profile
		return cfg
	}
	cfgs := []Config{
		small("tpcc", ""), small("tpcc", ""), small("tpcc", ""),
		small("milc", ""), small("tpcc", "sram"), small("milc", "hybrid16"),
	}
	want := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		clearTagImages()
		want[i] = resultJSON(t, cfg)
	}

	clearTagImages()
	got := make([][]byte, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(cfg)
			if err == nil {
				got[i], err = json.Marshal(res)
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("config %d: concurrent cold build gave a different result", i)
		}
	}
	// Each of the 16 banks for (shared, 4 MB), (private, 4 MB), (shared,
	// 1 MB) and (private, 1 MB): hybrid16 makes all 16 banks SRAM.
	if n := len(storedImages(t, &tagImages)); n != 4*16 {
		t.Fatalf("memo holds %d bank images, want %d", n, 4*16)
	}
}

// TestTagImageBudget: the memo keeps its stored bytes within the budget by
// evicting the least recently used images, and hands back images larger
// together than the whole budget without storing them — in New too, whose
// run then matches one built from stored images.
func TestTagImageBudget(t *testing.T) {
	m := imageMemo{budget: 8 * 100}
	// get asks for banks of the given sizes in words; size 0 must be a hit.
	get := func(sizes map[int]int) (shared map[int]bool) {
		t.Helper()
		var keys []imageKey
		for b := range sizes {
			keys = append(keys, imageKey{bank: b})
		}
		imgs, sh := m.get(keys, func(i int) []uint64 {
			if sizes[keys[i].bank] == 0 {
				t.Fatalf("bank %d rebuilt", keys[i].bank)
			}
			return make([]uint64, sizes[keys[i].bank])
		})
		shared = map[int]bool{}
		for i, k := range keys {
			if n := sizes[k.bank]; n > 0 && len(imgs[i]) != n {
				t.Fatalf("bank %d: image of %d words, built %d", k.bank, len(imgs[i]), n)
			}
			shared[k.bank] = sh[i]
		}
		return shared
	}
	holds := func(want ...int) {
		t.Helper()
		var have []int
		for k := range storedImages(t, &m) {
			have = append(have, k.bank)
		}
		slices.Sort(have)
		if !slices.Equal(have, want) {
			t.Fatalf("memo holds banks %v, want %v", have, want)
		}
	}

	get(map[int]int{1: 40})
	get(map[int]int{2: 40})
	get(map[int]int{1: 0}) // a hit: bank 1 becomes the most recently used
	holds(1, 2)
	get(map[int]int{3: 40})
	holds(1, 3)
	if sh := get(map[int]int{4: 60, 5: 60}); sh[4] || sh[5] {
		t.Fatal("images larger together than the budget were stored")
	}
	holds(1, 3)
	get(map[int]int{5: 100})
	holds(5)
	// Storing bank 6 evicts bank 5, which the same call returned as the
	// memo's: it stays marked shared, so the caller still clones it.
	if sh := get(map[int]int{5: 0, 6: 10}); !sh[5] || !sh[6] {
		t.Fatalf("shared = %v, want both", sh)
	}
	holds(6)

	cfg := tinyCfg(SchemeSTT4TSBWB, "tpcc")
	cfg.MeshX, cfg.MeshY, cfg.Layers, cfg.Regions = 4, 4, 2, 4
	clearTagImages()
	want := resultJSON(t, cfg)
	tagImages.mu.Lock()
	tagImages.budget = 1 << 20 // below the 4 MiB of 4x4x2 images
	tagImages.mu.Unlock()
	defer func() {
		tagImages.mu.Lock()
		tagImages.budget = tagImageBudget
		tagImages.mu.Unlock()
	}()
	clearTagImages()
	if got := resultJSON(t, cfg); !bytes.Equal(got, want) {
		t.Error("a run on unstored images differs from one on stored images")
	}
	if n := len(storedImages(t, &tagImages)); n != 0 {
		t.Fatalf("memo stored %d images above its budget", n)
	}
}

// BenchmarkNew times construction alone on BenchmarkFullRun/wb's
// configuration. cold empties the tag-image memo before every New, the cost
// a process's first run of a (topology, sharing mode, bank capacity) pays;
// warm reuses the stored image, as every later run does.
func BenchmarkNew(b *testing.B) {
	cfg := Config{
		Scheme:     SchemeSTT4TSBWB,
		Assignment: workload.Homogeneous(workload.MustByName("tpcc")),
	}
	for _, c := range []struct {
		name string
		cold bool
	}{{"cold", true}, {"warm", false}} {
		b.Run(c.name, func(b *testing.B) {
			if _, err := New(cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.cold {
					clearTagImages()
				}
				s, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}
