package trace

// The external golden test imports workload, so it cannot live in package
// trace; these give it the package's test trace and encoder table.
var (
	RandomTrace = randomTrace
	Encoders    = encoders
)
