package multistage

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wdm"
)

// The golden routing test pins the router's decisions: a seeded stream
// of Add, AddBranch and Release requests — with a middle failure and a
// RerouteAroundReport migration mid-stream, and a middle stage sized
// below the sufficient bound so requests block — runs against every
// construction, strategy, wavelength policy, link semantics and depth.
// Every RouteRecord, every BlockReport, every observer step and the
// final Stats() feed one digest per configuration, and the digests must
// match testdata/golden_routing.txt byte for byte. Any change to which
// middles, wavelengths or ids the router picks shows up here.
//
// Regenerate (only when a routing change is intended) with
//
//	go test ./internal/multistage -run TestGoldenRouting -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_routing.txt")

const goldenFile = "testdata/golden_routing.txt"

// goldenConfigs enumerates the parameter grid the digest covers.
func goldenConfigs() []Params {
	type cm struct {
		c     Construction
		model wdm.Model
		m, x  int
	}
	base := []cm{
		{MSWDominant, wdm.MSW, 3, 2},
		{MSWDominant, wdm.MAW, 5, 2},
		{MAWDominant, wdm.MAW, 3, 2},
		{MAWDominant, wdm.MSW, 3, 2},
		{AWGClos, wdm.MAW, 5, 4},
	}
	var out []Params
	for _, b := range base {
		for _, depth := range []int{3, 5} {
			if b.c == AWGClos && depth == 5 {
				continue // AWG-Clos does not nest
			}
			for _, s := range []Strategy{GreedyMinIntersection, FirstFit} {
				for _, wp := range []WavePick{FirstFree, MostUsed, LeastUsed} {
					for _, cons := range []bool{false, true} {
						out = append(out, Params{
							N: 16, K: 3, R: 4, M: b.m, X: b.x,
							Model: b.model, Construction: b.c,
							Strategy: s, WavePick: wp, ConservativeLinks: cons,
							Depth: depth, Lite: true,
						})
					}
				}
			}
		}
	}
	return out
}

func goldenName(p Params) string {
	return fmt.Sprintf("%v/%v/%v/%v/conservative=%v/depth=%d",
		p.Construction, p.Model, p.Strategy, p.WavePick, p.ConservativeLinks, p.Depth)
}

func TestGoldenRouting(t *testing.T) {
	configs := goldenConfigs()
	got := make([]string, len(configs))
	for i, p := range configs {
		got[i] = goldenName(p) + " " + goldenDigest(t, p, int64(i+1), i%2 == 0)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d configurations, test has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("routing diverged:\n got  %s\n want %s", got[i], want[i])
		}
	}
}

// goldenDigest drives one configuration's op stream and returns the
// hex digest of everything the router reported.
func goldenDigest(t *testing.T, p Params, seed int64, observe bool) string {
	t.Helper()
	net := mustNetwork(t, p)
	h := sha256.New()
	emit := func(tag string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %s\n", tag, b)
	}
	if observe {
		net.SetRouteObserver(func(s RouteStep) { emit("step", s) })
	}
	record := func(tag string, id int) {
		rec, ok := net.RouteRecord(id)
		if !ok {
			t.Fatalf("%s: no route record for live id %d", tag, id)
		}
		emit(tag, struct {
			ID  int
			Rec RouteRecord
		}{id, rec})
	}
	blocked := func(tag string, err error) {
		if !IsBlocked(err) {
			t.Fatalf("%s: unexpected error %v", tag, err)
		}
		// A nested middle module can block inside commit; that error
		// wraps the nested BlockedError, so digest the whole chain.
		report, _ := AsBlockReport(err)
		emit(tag, struct {
			Err    string
			Code   string
			Report *BlockReport
		}{err.Error(), BlockedCode(err), report})
	}

	rng := rand.New(rand.NewSource(seed))
	busySrc := map[wdm.PortWave]bool{}
	busyDst := map[wdm.PortWave]bool{}
	var live []int
	conns := map[int]wdm.Connection{}
	forget := func(id int) {
		c := conns[id]
		delete(busySrc, c.Source)
		for _, d := range c.Dests {
			delete(busyDst, d)
		}
		delete(conns, id)
		for i, v := range live {
			if v == id {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
	}
	// destWave picks a destination wavelength the model admits.
	destWave := func(src wdm.Wavelength, common wdm.Wavelength) wdm.Wavelength {
		switch p.Model {
		case wdm.MSW:
			return src
		case wdm.MSDW:
			return common
		}
		return wdm.Wavelength(rng.Intn(p.K))
	}
	failed := -1
	for op := 0; op < 400; op++ {
		switch {
		case op%150 == 75 && failed < 0:
			failed = rng.Intn(p.M)
			if err := net.FailMiddle(failed); err != nil {
				t.Fatal(err)
			}
			migrated, dropped, err := net.RerouteAroundReport(failed)
			if err != nil {
				t.Fatalf("RerouteAroundReport(%d): %v", failed, err)
			}
			emit("reroute", struct {
				Middle   int
				Migrated []Migration
				Dropped  []int
			}{failed, migrated, dropped})
			for _, m := range migrated {
				record("migrated", m.ID)
			}
			for _, id := range dropped {
				forget(id)
			}
			continue
		case op%150 == 125 && failed >= 0:
			if err := net.RepairMiddle(failed); err != nil {
				t.Fatal(err)
			}
			emit("repair", failed)
			failed = -1
			continue
		}

		r := rng.Intn(10)
		switch {
		case r < 3 && len(live) > 0:
			id := live[rng.Intn(len(live))]
			if err := net.Release(id); err != nil {
				t.Fatalf("Release(%d): %v", id, err)
			}
			emit("release", id)
			forget(id)
		case r < 5 && len(live) > 0:
			id := live[rng.Intn(len(live))]
			c := conns[id]
			ports := map[wdm.Port]bool{}
			for _, d := range c.Dests {
				ports[d.Port] = true
			}
			var add []wdm.PortWave
			for _, port := range rng.Perm(p.N) {
				if len(add) == 1+rng.Intn(2) {
					break
				}
				d := wdm.PortWave{Port: wdm.Port(port), Wave: destWave(c.Source.Wave, c.Dests[0].Wave)}
				if ports[d.Port] || busyDst[d] {
					continue
				}
				ports[d.Port] = true
				add = append(add, d)
			}
			if len(add) == 0 {
				continue
			}
			err := net.AddBranch(id, add...)
			if err != nil {
				blocked("branch-blocked", err)
				if _, ok := net.RouteRecord(id); !ok {
					// A nested middle module re-routes during the
					// restore and can block there too.
					emit("lost", id)
					forget(id)
					continue
				}
				record("restored", id)
				continue
			}
			record("branch", id)
			c = c.Clone()
			c.Dests = append(c.Dests, add...)
			conns[id] = c
			for _, d := range add {
				busyDst[d] = true
			}
		default:
			src := wdm.PortWave{Port: wdm.Port(rng.Intn(p.N)), Wave: wdm.Wavelength(rng.Intn(p.K))}
			if busySrc[src] {
				continue
			}
			common := wdm.Wavelength(rng.Intn(p.K))
			c := wdm.Connection{Source: src}
			fan := 1 + rng.Intn(6)
			for _, port := range rng.Perm(p.N)[:fan] {
				d := wdm.PortWave{Port: wdm.Port(port), Wave: destWave(src.Wave, common)}
				if !busyDst[d] {
					c.Dests = append(c.Dests, d)
				}
			}
			if len(c.Dests) == 0 {
				continue
			}
			id, err := net.Add(c)
			if err != nil {
				blocked("add-blocked", err)
				continue
			}
			record("add", id)
			live = append(live, id)
			conns[id] = c
			busySrc[src] = true
			for _, d := range c.Dests {
				busyDst[d] = true
			}
		}
	}
	for _, id := range live {
		record("final", id)
	}
	routedOK, blockedN := net.Stats()
	emit("stats", [2]int64{routedOK, blockedN})
	emit("utilization", net.Utilization())
	if routedOK == 0 || blockedN == 0 {
		t.Errorf("%s: op stream routed %d and blocked %d; want both exercised", goldenName(p), routedOK, blockedN)
	}
	return digestHex(h)
}

func digestHex(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)) }
