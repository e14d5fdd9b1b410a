package dsm

// SetStats overwrites a module's counters, so tests outside the package
// can drive aggregation over every field.
func SetStats(m *Module, s Stats) { m.stats = s }
