package vec

// AggKind is the aggregate function a GroupedAgg accumulates.
type AggKind uint8

// Supported aggregates (the same set expr.IsAggregate accepts, minus
// DISTINCT which stays on the row path).
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// KindOf maps an aggregate function name to its AggKind.
func KindOf(name string) (AggKind, bool) {
	switch name {
	case "count":
		return AggCount, true
	case "sum":
		return AggSum, true
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	case "avg":
		return AggAvg, true
	}
	return 0, false
}
