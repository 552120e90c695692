package traffic

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/fabric/backend"
	"repro/internal/multistage"
	"repro/internal/switchd/api"
	"repro/internal/switchd/client"
	"repro/internal/wdm"
)

// Target is what the engine drives: the /v1 calls a run makes, in the
// shape of the typed client. *client.Client is the served target;
// Local drives fabric planes in process, so offline sweeps and the
// served path share one request generator.
type Target interface {
	Status(ctx context.Context) (api.Status, error)
	Connect(ctx context.Context, connection string, fabric int) (api.ConnectResponse, error)
	Branch(ctx context.Context, session uint64, dests ...string) (api.SessionInfo, error)
	Disconnect(ctx context.Context, session uint64) (api.DisconnectResponse, error)
	// ReportLoad receives Sweep's once-a-second self-report.
	ReportLoad(ctx context.Context, rep api.LoadgenReport) error
}

var _ Target = (*client.Client)(nil)

// Plane is one in-process switching plane. Every backend.Backend, a
// *multistage.Network, a *crossbar.Switch and a trace.Recorder are
// planes; a plane that also has AddBranch serves churn grows.
type Plane interface {
	Add(wdm.Connection) (int, error)
	Release(int) error
}

type brancher interface {
	AddBranch(id int, dests ...wdm.PortWave) error
}

// Local is the in-process Target. It answers as a switchd serving the
// same planes would: a blocking error carries the stable code the
// server sends (the backend's own block class, else blocked), and any
// other plane error is returned without a code, which the engine
// treats as a fatal protocol error — the engine only offers admissible
// requests, so a non-blocking refusal means the plane is wrong.
type Local struct {
	status api.Status
	planes []localPlane
}

// localPlane serializes one plane: planes are not safe for concurrent
// use, and in max-rate mode two workers share a plane by default.
type localPlane struct {
	mu    sync.Mutex
	plane Plane
}

// NewLocal returns a Target over planes, described by st (see
// PlaneStatus); st.Replicas is set to the plane count.
func NewLocal(st api.Status, planes ...Plane) *Local {
	st.Replicas = len(planes)
	l := &Local{status: st, planes: make([]localPlane, len(planes))}
	for i, p := range planes {
		l.planes[i].plane = p
	}
	return l
}

// PlaneStatus is the Status a switchd serving registry backend name on
// planes with params p reports: p's shape and the backend's sufficient
// bound. An unregistered name (a crossbar, say) leaves the bound at 0.
func PlaneStatus(name string, p multistage.Params) api.Status {
	st := api.Status{
		Backend: name, Model: p.Model.String(), Construction: p.Construction.String(),
		N: p.N, K: p.K, R: p.R, M: p.M, X: p.X,
	}
	if desc, err := backend.Get(name); err == nil {
		st.SufficientM = desc.Sufficient(p)
	}
	return st
}

// Session ids interleave the planes: id·planes + plane.
func (l *Local) session(plane, id int) uint64 {
	return uint64(id)*uint64(len(l.planes)) + uint64(plane)
}

func (l *Local) lookup(session uint64) (*localPlane, int) {
	n := uint64(len(l.planes))
	return &l.planes[session%n], int(session / n)
}

// Status returns the planes' description.
func (l *Local) Status(context.Context) (api.Status, error) { return l.status, nil }

// Connect parses the connection and adds it to the given plane.
func (l *Local) Connect(_ context.Context, connection string, fabric int) (api.ConnectResponse, error) {
	if fabric < 0 || fabric >= len(l.planes) {
		return api.ConnectResponse{}, fmt.Errorf("traffic: no plane %d", fabric)
	}
	c, err := wdm.ParseConnection(connection)
	if err != nil {
		return api.ConnectResponse{}, err
	}
	lp := &l.planes[fabric]
	lp.mu.Lock()
	id, err := lp.plane.Add(c)
	lp.mu.Unlock()
	if err != nil {
		return api.ConnectResponse{}, planeError(err)
	}
	return api.ConnectResponse{Session: l.session(fabric, id), Fabric: fabric}, nil
}

// Branch grows a session by the given leaves, on planes that have
// AddBranch.
func (l *Local) Branch(_ context.Context, session uint64, dests ...string) (api.SessionInfo, error) {
	lp, id := l.lookup(session)
	b, ok := lp.plane.(brancher)
	if !ok {
		return api.SessionInfo{}, fmt.Errorf("traffic: plane %T has no AddBranch", lp.plane)
	}
	slots := make([]wdm.PortWave, len(dests))
	for i, d := range dests {
		s, err := wdm.ParseSlot(d)
		if err != nil {
			return api.SessionInfo{}, err
		}
		slots[i] = s
	}
	lp.mu.Lock()
	err := b.AddBranch(id, slots...)
	lp.mu.Unlock()
	if err != nil {
		return api.SessionInfo{}, planeError(err)
	}
	return api.SessionInfo{ID: session}, nil
}

// Disconnect releases a session.
func (l *Local) Disconnect(_ context.Context, session uint64) (api.DisconnectResponse, error) {
	lp, id := l.lookup(session)
	lp.mu.Lock()
	err := lp.plane.Release(id)
	lp.mu.Unlock()
	if err != nil {
		return api.DisconnectResponse{}, err
	}
	return api.DisconnectResponse{Released: session}, nil
}

// ReportLoad is a no-op: there is no server to report to.
func (l *Local) ReportLoad(context.Context, api.LoadgenReport) error { return nil }

// planeError maps a blocking error to the api error a switchd answers
// with; anything else passes through uncoded.
func planeError(err error) error {
	if !multistage.IsBlocked(err) {
		return err
	}
	code := multistage.BlockedCode(err)
	if code == "" {
		code = api.CodeBlocked
	}
	return &api.Error{Code: code, Message: err.Error()}
}

// Repacker is a plane in rearrangeable operation: Add goes through
// AddWithRepack, so a request the strict router would block is routed
// by repacking live connections when it can be. Repacked counts the
// adds that needed it.
type Repacker struct {
	*multistage.Network
	Repacked int
}

// Add routes c, rearranging if the strict router blocks.
func (r *Repacker) Add(c wdm.Connection) (int, error) {
	id, did, err := r.Network.AddWithRepack(c)
	if did && err == nil {
		r.Repacked++
	}
	return id, err
}
