package gen

import (
	"sync"

	"scalefree/internal/xrand"
)

// Table-driven power-law sampling for configuration-model degree
// sequences. xrand.PowerLawTable is bit-identical to RNG.PowerLawInt with
// identical RNG consumption (see internal/xrand/powerlaw.go), so drawing
// from it cannot change a single sampled degree — pinned by
// TestPowerLawDegreeSequenceTableIdentity. The table is read-only after
// construction, so one instance serves every chunk worker of a build, and
// an engine build shares it with every other: a series fixes its
// distribution P(k) ∝ k^-γ on [m, kc], so every realization of every CM
// series draws from one of a handful of tables for the whole run.

type plTableKey struct {
	kMin, kMax int
	gamma      float64
}

// plTables holds the table of every distribution an engine build has
// drawn from, for the life of the process.
var plTables sync.Map // plTableKey -> *xrand.PowerLawTable

// powerLawTable returns the sampling table for P(k) ∝ k^-gamma on
// [kMin, kMax]. A build with an Arena — an engine build, which repeats
// its series' distribution every realization — takes it from plTables,
// building and storing it on the first miss; concurrent misses agree on
// the stored one. A build without an arena (the facade, the CLIs, tests
// that roam the parameter space) builds its own and keeps nothing, so a
// caller sweeping γ or N cannot pile up tables of 8 B × (kMax − kMin).
func powerLawTable(kMin, kMax int, gamma float64, b Build) *xrand.PowerLawTable {
	if b.Arena == nil {
		return xrand.NewPowerLawTable(kMin, kMax, gamma)
	}
	key := plTableKey{kMin, kMax, gamma}
	if v, ok := plTables.Load(key); ok {
		return v.(*xrand.PowerLawTable)
	}
	v, _ := plTables.LoadOrStore(key, xrand.NewPowerLawTable(kMin, kMax, gamma))
	return v.(*xrand.PowerLawTable)
}
