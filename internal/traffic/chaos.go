package traffic

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/switchd/client"
)

// A chaos schedule fires fail/repair calls against a server's failure
// plane at fixed offsets into a run, turning a load run into an
// end-to-end chaos drill: at m = bound + f spares, failing f middles
// mid-run must keep both drops and blocks at zero.

// Chaos actions a schedule can fire against the failure plane.
const (
	ChaosFail   = "fail"
	ChaosRepair = "repair"
)

// ChaosEvent is one scheduled failure-plane operation.
type ChaosEvent struct {
	// At is the offset from the start of the run.
	At time.Duration `json:"at_ns"`
	// Action is "fail" or "repair".
	Action string `json:"action"`
	Fabric int    `json:"fabric"`
	Middle int    `json:"middle"`
}

// ParseChaos parses a chaos schedule in the -chaos flag syntax: a
// comma-separated list of "<action>@<offset> f<fabric>:m<middle>",
// e.g. "fail@10s f0:m2, repair@30s f0:m2".
func ParseChaos(s string) ([]ChaosEvent, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var events []ChaosEvent
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Fields(part)
		if len(fields) != 2 {
			return nil, fmt.Errorf("traffic: chaos: want \"<action>@<offset> f<fabric>:m<middle>\", got %q", part)
		}
		action, offset, ok := strings.Cut(fields[0], "@")
		if !ok || (action != ChaosFail && action != ChaosRepair) {
			return nil, fmt.Errorf("traffic: chaos: want fail@<offset> or repair@<offset>, got %q", fields[0])
		}
		at, err := time.ParseDuration(offset)
		if err != nil || at < 0 {
			return nil, fmt.Errorf("traffic: chaos: bad offset in %q: %v", fields[0], err)
		}
		target := fields[1]
		fs, ms, ok := strings.Cut(target, ":")
		if !ok || !strings.HasPrefix(fs, "f") || !strings.HasPrefix(ms, "m") {
			return nil, fmt.Errorf("traffic: chaos: want f<fabric>:m<middle>, got %q", target)
		}
		fab, err1 := strconv.Atoi(fs[1:])
		mid, err2 := strconv.Atoi(ms[1:])
		if err1 != nil || err2 != nil || fab < 0 || mid < 0 {
			return nil, fmt.Errorf("traffic: chaos: bad target %q", target)
		}
		events = append(events, ChaosEvent{At: at, Action: action, Fabric: fab, Middle: mid})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events, nil
}

// ChaosOutcome is what one scheduled event did.
type ChaosOutcome struct {
	ChaosEvent
	// Error is set when the admin call failed (by api error string).
	Error string `json:"error,omitempty"`
	// Migrated/Dropped are the session counts a fail moved/lost; zero
	// for repairs.
	Migrated int `json:"migrated,omitempty"`
	Dropped  int `json:"dropped,omitempty"`
	// Health is the server's rollup status after the event.
	Health string `json:"health,omitempty"`
}

func (c ChaosOutcome) String() string {
	s := fmt.Sprintf("chaos %s@%v f%d:m%d", c.Action, c.At.Round(time.Millisecond), c.Fabric, c.Middle)
	switch {
	case c.Error != "":
		return s + " error=" + c.Error
	case c.Action == ChaosFail:
		return s + fmt.Sprintf(" migrated=%d dropped=%d health=%s", c.Migrated, c.Dropped, c.Health)
	default:
		return s + " health=" + c.Health
	}
}

// RunChaos fires the scheduled events in order, sleeping out each
// offset relative to start; ctx cancellation ends the schedule early
// (events past the run's end never fire).
func RunChaos(ctx context.Context, cl *client.Client, start time.Time, events []ChaosEvent) []ChaosOutcome {
	var out []ChaosOutcome
	for _, ev := range events {
		wait := time.Until(start.Add(ev.At))
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return out
			case <-t.C:
			}
		} else if ctx.Err() != nil {
			return out
		}
		oc := ChaosOutcome{ChaosEvent: ev}
		switch ev.Action {
		case ChaosFail:
			rep, err := cl.Fail(ctx, ev.Fabric, ev.Middle)
			if err != nil {
				oc.Error = err.Error()
			} else {
				oc.Migrated = len(rep.Migrated)
				oc.Dropped = len(rep.Dropped)
				oc.Health = rep.Health.Status
			}
		case ChaosRepair:
			rep, err := cl.Repair(ctx, ev.Fabric, ev.Middle)
			if err != nil {
				oc.Error = err.Error()
			} else {
				oc.Health = rep.Health.Status
			}
		}
		out = append(out, oc)
	}
	return out
}
