package multistage

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/wdm"
)

// Exported route-record encoding. A RouteRecord is the externally
// serializable form of the internal routing bookkeeping AddBranch's
// restore path replays: the exact middle modules, link wavelengths and
// (implicitly) module sub-connections a connection occupies. It is what
// a durable state plane persists per acknowledged session — re-applying
// the record through Reinstall performs no router search, so a recorded
// route can always be re-materialized into a fabric whose recorded
// resources are free, regardless of how much the network has churned or
// which middle modules have failed since. That turns the paper's
// "state below the bound is always realizable" insight into crash
// recovery: replaying records preserves the zero-blocking invariant by
// construction.

// RouteLeg is one claimed input-stage link wavelength: the link from
// the connection's input module to middle module Middle carries the
// connection on Wave.
type RouteLeg struct {
	Middle int            `json:"middle"`
	Wave   wdm.Wavelength `json:"wave"`
}

// RouteHop is one claimed output-stage link wavelength: the link from
// middle module Middle to output module Out carries the connection on
// Wave.
type RouteHop struct {
	Middle int            `json:"middle"`
	Out    int            `json:"out"`
	Wave   wdm.Wavelength `json:"wave"`
}

// RouteRecord is the full serializable route of one live connection.
// Conn uses the repository's compact text codec (package wdm) so the
// record is self-describing in logs and dumps.
type RouteRecord struct {
	Conn string     `json:"conn"`
	In   []RouteLeg `json:"in"`
	Out  []RouteHop `json:"out"`
}

// RouteRecord exports the recorded route of live connection id. The
// slices are ordered (legs by middle, hops by middle then output
// module) so equal routes encode identically.
func (net *Network) RouteRecord(id int) (RouteRecord, bool) {
	rc, ok := net.conns[id]
	if !ok {
		return RouteRecord{}, false
	}
	rec := RouteRecord{
		Conn: wdm.FormatConnection(rc.conn),
		In:   make([]RouteLeg, len(rc.legs)),
		Out:  make([]RouteHop, len(rc.hops)),
	}
	for i, l := range rc.legs {
		rec.In[i] = l.RouteLeg
	}
	for i, hp := range rc.hops {
		rec.Out[i] = hp.RouteHop
	}
	return rec, true
}

// decode converts the record back into the internal routing form,
// validating it against the network's shape.
func (rec RouteRecord) decode(net *Network) (*routed, error) {
	conn, err := wdm.ParseConnection(rec.Conn)
	if err != nil {
		return nil, fmt.Errorf("multistage: route record: %w", err)
	}
	conn = conn.Normalize()
	if err := net.Shape().CheckConnection(net.params.Model, conn); err != nil {
		return nil, fmt.Errorf("multistage: route record %q: %w", rec.Conn, err)
	}
	srcMod, _ := net.splitPort(conn.Source.Port)
	rc := &routed{
		conn:     conn,
		srcMod:   srcMod,
		inConnID: -1,
		legs:     make([]routeLeg, 0, len(rec.In)),
		hops:     make([]routeHop, 0, len(rec.Out)),
	}
	m, r := len(net.midMods), net.params.R
	legSeen := make([]uint64, wordsFor(m))
	hopSeen := make([]uint64, wordsFor(m*r))
	for _, leg := range rec.In {
		if leg.Middle < 0 || leg.Middle >= m || int(leg.Wave) < 0 || int(leg.Wave) >= net.params.K {
			return nil, fmt.Errorf("multistage: route record %q: input leg %+v out of range", rec.Conn, leg)
		}
		if hasBit(legSeen, leg.Middle) {
			return nil, fmt.Errorf("multistage: route record %q: duplicate input leg for middle %d", rec.Conn, leg.Middle)
		}
		setBit(legSeen, leg.Middle)
		rc.legs = append(rc.legs, routeLeg{leg, -1})
	}
	for _, hop := range rec.Out {
		if hop.Middle < 0 || hop.Middle >= m || hop.Out < 0 || hop.Out >= r ||
			int(hop.Wave) < 0 || int(hop.Wave) >= net.params.K {
			return nil, fmt.Errorf("multistage: route record %q: output hop %+v out of range", rec.Conn, hop)
		}
		key := [2]int{hop.Middle, hop.Out}
		if hasBit(hopSeen, hop.Middle*r+hop.Out) {
			return nil, fmt.Errorf("multistage: route record %q: duplicate output hop %v", rec.Conn, key)
		}
		if !hasBit(legSeen, hop.Middle) {
			return nil, fmt.Errorf("multistage: route record %q: output hop rides middle %d with no input leg", rec.Conn, hop.Middle)
		}
		setBit(hopSeen, hop.Middle*r+hop.Out)
		rc.hops = append(rc.hops, routeHop{hop, -1})
	}
	if len(rc.legs) == 0 {
		return nil, fmt.Errorf("multistage: route record %q: no input legs", rec.Conn)
	}
	// Install in the canonical order whatever order the record lists.
	slices.SortFunc(rc.legs, func(a, b routeLeg) int { return cmp.Compare(a.Middle, b.Middle) })
	slices.SortFunc(rc.hops, func(a, b routeHop) int {
		if a.Middle != b.Middle {
			return cmp.Compare(a.Middle, b.Middle)
		}
		return cmp.Compare(a.Out, b.Out)
	})
	return rc, nil
}

// Reinstall re-materializes a recorded route exactly as recorded under
// a fresh connection id, with no router search: it succeeds whenever
// the recorded slots and link wavelengths are free. It is the crash-
// recovery primitive — a set of records that coexisted in a fabric is
// mutually conflict-free, so replaying all of them into an empty fabric
// of the same parameters cannot fail, and therefore cannot block,
// whatever the middle-stage provisioning or failure state.
func (net *Network) Reinstall(rec RouteRecord) (int, error) {
	rc, err := rec.decode(net)
	if err != nil {
		return 0, err
	}
	if net.srcBusy.Has(rc.conn.Source) {
		return 0, fmt.Errorf("multistage: reinstall %q: source slot used by connection %d", rec.Conn, net.holder(rc.conn.Source, true))
	}
	for _, d := range rc.conn.Dests {
		if net.dstBusy.Has(d) {
			return 0, fmt.Errorf("multistage: reinstall %q: destination slot %v used by connection %d", rec.Conn, d, net.holder(d, false))
		}
	}
	id := net.nextID
	if err := net.reinstall(id, rc); err != nil {
		return 0, err
	}
	net.nextID++
	return id, nil
}
