package multistage

import (
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/wdm"
)

// These white-box tests corrupt internal state deliberately and assert
// that Verify detects each corruption class — the negative side of the
// verification contract (a verifier that never fails is vacuous).

func corruptibleNetwork(t *testing.T) *Network {
	t.Helper()
	net := mustNetwork(t, Params{N: 4, K: 2, R: 2, Model: wdm.MAW, Construction: MAWDominant})
	mustAdd(t, net, conn(pw(0, 0), pw(2, 1), pw(3, 0)))
	mustAdd(t, net, conn(pw(1, 1), pw(0, 0)))
	mustVerify(t, net)
	return net
}

func TestVerifyDetectsLeakedLink(t *testing.T) {
	net := corruptibleNetwork(t)
	// Mark an unused link wavelength as held by a phantom connection.
	for j := range net.outLink {
		for p := range net.outLink[j] {
			for w, v := range net.outLink[j][p] {
				if v == freeLink {
					net.outLink[j][p][w] = 999
					err := net.Verify()
					if err == nil || !strings.Contains(err.Error(), "leaked") {
						t.Fatalf("leaked link not detected: %v", err)
					}
					return
				}
			}
		}
	}
	t.Fatal("no free link found to corrupt")
}

func TestVerifyDetectsStolenLink(t *testing.T) {
	net := corruptibleNetwork(t)
	// Reassign a held link wavelength to the wrong connection id.
	for j := range net.outLink {
		for p := range net.outLink[j] {
			for w, v := range net.outLink[j][p] {
				if v != freeLink {
					net.outLink[j][p][w] = v + 1000
					err := net.Verify()
					if err == nil || !strings.Contains(err.Error(), "holds") {
						t.Fatalf("stolen link not detected: %v", err)
					}
					return
				}
			}
		}
	}
	t.Fatal("no held link found to corrupt")
}

func TestVerifyDetectsBusyBitDrift(t *testing.T) {
	// The router searches the busy bitsets, not the id tables: a bit
	// that disagrees with its table entry, in either direction, must
	// fail Verify.
	for _, set := range []bool{true, false} {
		net := corruptibleNetwork(t)
		flipped := false
		for j := range net.outLink {
			for p := range net.outLink[j] {
				for w, v := range net.outLink[j][p] {
					if flipped || (v == freeLink) != set {
						continue
					}
					if set {
						setBit(net.outSet(j, w), p)
					} else {
						clearBit(net.outSet(j, w), p)
					}
					flipped = true
				}
			}
		}
		if !flipped {
			t.Fatalf("no link to corrupt (set=%v)", set)
		}
		if err := net.Verify(); err == nil || !strings.Contains(err.Error(), "busy bit") {
			t.Fatalf("busy bit drift (set=%v) not detected: %v", set, err)
		}
	}
}

func TestVerifyDetectsModuleFault(t *testing.T) {
	// Break an SOA gate inside a middle module carrying traffic: the
	// per-module optical check must flag the middle stage.
	net := corruptibleNetwork(t)
	for j, m := range net.midMods {
		sw, ok := m.(interface {
			Fabric() *fabric.Fabric
			Len() int
		})
		if !ok || sw.Len() == 0 {
			continue
		}
		fab := sw.Fabric()
		for _, g := range fab.ElementsOf(fabric.Gate) {
			if fab.GateOn(g) {
				fab.SetGate(g, false)
				err := net.Verify()
				if err == nil || !strings.Contains(err.Error(), "middle module") {
					t.Fatalf("middle module %d fault not attributed: %v", j, err)
				}
				return
			}
		}
	}
	t.Fatal("no loaded middle module found")
}

func TestVerifyDetectsOutputStageFault(t *testing.T) {
	net := corruptibleNetwork(t)
	for p, m := range net.outMods {
		if m.Len() == 0 {
			continue
		}
		fab := m.Fabric()
		for _, g := range fab.ElementsOf(fabric.Gate) {
			if fab.GateOn(g) {
				fab.SetGate(g, false)
				err := net.Verify()
				if err == nil || !strings.Contains(err.Error(), "output module") {
					t.Fatalf("output module %d fault not attributed: %v", p, err)
				}
				return
			}
		}
	}
	t.Fatal("no loaded output module found")
}

func TestVerifyDetectsLostSubConnection(t *testing.T) {
	net := corruptibleNetwork(t)
	// Release a middle-module sub-connection behind the router's back.
	for id, rc := range net.conns {
		for _, l := range rc.legs {
			if err := net.midMods[l.Middle].Release(l.cid); err != nil {
				t.Fatal(err)
			}
			err := net.Verify()
			if err == nil {
				t.Fatalf("connection %d: lost middle sub-connection undetected", id)
			}
			return
		}
	}
}
