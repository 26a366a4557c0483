package obs

import (
	"toposense/internal/sim"
)

// Default capacities for the bounded recorders.
const (
	DefaultFlightRecorder = 4096
	DefaultAuditPasses    = 256
)

// Options sizes an Obs instance. The zero value takes the defaults.
type Options struct {
	// FlightRecorder is the event ring capacity (0 = DefaultFlightRecorder,
	// < 0 disables the recorder entirely).
	FlightRecorder int
	// AuditPasses is how many controller passes the audit log retains
	// (0 = DefaultAuditPasses, < 0 disables the audit log).
	AuditPasses int
}

// Obs bundles one simulation's observability state: the instrument
// registry, the flight recorder and the audit log. Components register
// their own instruments in Reg from their SetObs, so a run exports exactly
// the instruments of the components it built.
type Obs struct {
	Reg   *Registry
	Rec   *Recorder
	Audit *Audit

	engines []EngineSource
}

// EngineSource is anything whose scheduler statistics a Dump can snapshot
// — both sim.Engine and sim.ShardedEngine satisfy it.
type EngineSource interface {
	Stats() sim.EngineStats
}

// New builds an Obs with an empty registry and the recorders opt sizes.
func New(opt Options) *Obs {
	o := &Obs{Reg: NewRegistry()}
	switch {
	case opt.FlightRecorder == 0:
		o.Rec = NewRecorder(DefaultFlightRecorder)
	case opt.FlightRecorder > 0:
		o.Rec = NewRecorder(opt.FlightRecorder)
	}
	switch {
	case opt.AuditPasses == 0:
		o.Audit = NewAudit(DefaultAuditPasses)
	case opt.AuditPasses > 0:
		o.Audit = NewAudit(opt.AuditPasses)
	}
	return o
}

// ObserveEngine registers a simulation engine whose scheduler stats are
// snapshotted into every Dump.
func (o *Obs) ObserveEngine(e EngineSource) {
	if o == nil || e == nil {
		return
	}
	o.engines = append(o.engines, e)
}
