package multistage

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/wdm"
)

// AddBranch grows a live multicast connection by one or more additional
// destination slots, keeping its id stable — the control-plane "join"
// operation of a long-lived multicast session (a new receiver tuning
// into an ongoing video feed).
//
// The grown connection must be admissible under the network's multicast
// model as a whole: the new slots must be free, must not repeat an
// output port the connection already reaches, and must satisfy the
// model's wavelength rule relative to the existing endpoints. The grow
// is atomic — on any failure (inadmissible request or ErrBlocked when
// the enlarged destination set cannot be covered within the split limit
// x) the original connection is left exactly as it was, still routed and
// still carrying its id.
//
// Internally the connection is re-routed from scratch: released, then
// re-added with the enlarged destination set. When the grow fails, the
// original connection is restored by replaying its recorded route — the
// exact middle modules, link wavelengths and module sub-connections it
// held before the release — rather than by re-routing it. Replay does
// not consult the router, so restoration cannot block no matter how the
// rest of the network has churned since the connection first routed,
// how far m sits below the sufficient bound, or which middle modules
// have since failed.
func (net *Network) AddBranch(id int, dests ...wdm.PortWave) error {
	rc, ok := net.conns[id]
	if !ok {
		return fmt.Errorf("multistage: no connection with id %d", id)
	}
	if len(dests) == 0 {
		return nil
	}
	old := rc.snapshot()
	grown := rc.conn.Clone()
	grown.Dests = append(grown.Dests, dests...)
	grown = grown.Normalize()

	// Reject inadmissible grows before touching any routing state.
	// Shape.CheckConnection covers range, duplicate output ports (both
	// among the new slots and against the existing destinations) and the
	// model's wavelength rule; the busy check must exclude the
	// connection's own slots, which Release is about to free.
	if err := net.Shape().CheckConnection(net.params.Model, grown); err != nil {
		return err
	}
	for _, d := range dests {
		if net.dstBusy.Has(d) {
			return fmt.Errorf("multistage: destination slot %v already used by connection %d", d, net.holder(d, false))
		}
	}

	// Stats() counts logical operations: a successful grow is not a new
	// routed connection and the restoration of the original is not a new
	// routed connection either, so snapshot the counters and apply only
	// the one delta that matters — a blocked grow is a blocking event.
	routed0, blocked0 := net.routedCount, net.blockedCount

	if err := net.Release(id); err != nil {
		return fmt.Errorf("multistage: AddBranch releasing %d: %w", id, err)
	}
	newID, err := net.Add(grown)
	if err == nil {
		net.remapID(newID, id)
		net.routedCount, net.blockedCount = routed0, blocked0
		return nil
	}
	if rerr := net.reinstall(id, old); rerr != nil {
		// Unreachable by construction: the release just freed every
		// resource the replay claims. Surface the corruption instead of
		// leaving the caller without its connection silently.
		return fmt.Errorf("multistage: AddBranch: connection %d lost — restore after failed grow: %v (grow: %w)", id, rerr, err)
	}
	net.routedCount, net.blockedCount = routed0, blocked0+1
	// The forensic report was built by the internal re-route; re-tag it
	// so consumers see the operation that actually blocked.
	var be *BlockedError
	if errors.As(err, &be) && be.Report != nil {
		be.Report.Op = "branch"
	}
	return err
}

// snapshot deep-copies a connection's routing record so it can be
// replayed after a release. Module-level sub-connection ids are not
// copied: they die with the release and reinstall assigns fresh ones.
func (rc *routed) snapshot() *routed {
	cp := &routed{
		conn:     rc.conn.Clone(),
		srcMod:   rc.srcMod,
		inConnID: -1,
		legs:     slices.Clone(rc.legs),
		hops:     slices.Clone(rc.hops),
	}
	for i := range cp.legs {
		cp.legs[i].cid = -1
	}
	for i := range cp.hops {
		cp.hops[i].cid = -1
	}
	return cp
}

// reinstall re-materializes a released route exactly as recorded,
// registering it under the given id: same middle modules, same link
// wavelengths, same per-module sub-connections. Unlike Add it performs
// no routing search, so it succeeds whenever the recorded resources are
// free — which they are immediately after the route is released,
// regardless of network churn or middle-module failures since the
// original routing. It is AddBranch's restore path.
func (net *Network) reinstall(id int, rc *routed) error {
	if _, clash := net.conns[id]; clash {
		return fmt.Errorf("multistage: reinstall: id %d already live", id)
	}
	// Every recorded link claim must be free before anything is touched;
	// a conflict means the route was never fully released.
	for _, l := range rc.legs {
		if net.inLink[rc.srcMod][l.Middle][l.Wave] != freeLink {
			return fmt.Errorf("multistage: reinstall: link %d->mid%d λ%d not free", rc.srcMod, l.Middle, l.Wave)
		}
	}
	for _, hp := range rc.hops {
		if net.outLink[hp.Middle][hp.Out][hp.Wave] != freeLink {
			return fmt.Errorf("multistage: reinstall: link mid%d->%d λ%d not free", hp.Middle, hp.Out, hp.Wave)
		}
	}

	// Re-claim the recorded link wavelengths, then re-install the module
	// sub-connections they carried.
	for _, l := range rc.legs {
		net.claimIn(rc.srcMod, l.Middle, l.Wave, id)
	}
	for _, hp := range rc.hops {
		net.claimOut(hp.Middle, hp.Out, hp.Wave, id)
	}
	net.groupDests(rc.conn)
	_, srcLocal := net.splitPort(rc.conn.Source.Port)
	if err := net.install(rc, srcLocal, "multistage: reinstall"); err != nil {
		return err
	}
	net.register(id, rc)
	return nil
}
