package main

import "testing"

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 100, End: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping counted once", []span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 250}}, 70},
		{"outside the parent", []span{{Start: 0, End: 100}, {Start: 200, End: 300}}, 100},
		{"covers everything", []span{{Start: 100, End: 200}}, 0},
		{"touching", []span{{Start: 110, End: 120}, {Start: 120, End: 130}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestParseServerTimingKeepsOrder(t *testing.T) {
	got := parseServerTiming("admission_wait;dur=0.002, lock_wait;dur=0.041, route_search;dur=1.500, bogus")
	want := []timingPhase{{"admission_wait", 2000}, {"lock_wait", 41000}, {"route_search", 1500000}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("phase %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestTreeMovesFabricUnderRouteSearch checks that a fabric span joined to
// a handler counts against route_search, not against the handler's own
// time.
func TestTreeMovesFabricUnderRouteSearch(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "http.handler", Path: "/v1/connect", Status: 200, Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "fabric.add", Start: 40, End: 60},
		{ID: 4, Parent: 2, Name: "phase.admission_wait", Start: 30, End: 35},
		{ID: 5, Parent: 2, Name: "phase.route_search", Start: 35, End: 65},
		{ID: 6, Parent: 2, Name: "http.respond", Start: 65, End: 90},
	}
	tr := buildTree(spans)
	if under := tr.children[5]; len(under) != 1 || under[0].ID != 3 {
		t.Fatalf("route_search phase children = %v, want the fabric span", under)
	}
	if got := tr.self(spans[1]); got != 80-5-30-25 {
		t.Errorf("handler self = %d, want 20", got)
	}
	if got := tr.self(spans[0]); got != 20 {
		t.Errorf("client self = %d, want 20", got)
	}
	if got := tr.phaseMeanUs([]span{spans[1]}, "route_search"); got != 0.030 {
		t.Errorf("route_search mean = %gus, want 0.030", got)
	}
}
