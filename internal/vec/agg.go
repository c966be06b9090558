package vec

import (
	"fmt"

	"citusgo/internal/types"
)

// AggKind is the aggregate function an AggState accumulates.
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

// AggState is a partial-aggregate accumulator with exactly
// expr.AggState's semantics: NULLs are ignored, sum/avg start in the first
// input's type and promote to float64 at the first float, min/max keep the
// first of equal values, avg divides by the non-NULL count. States from
// parallel chunk scans Merge in scan order, which keeps int sums exact and
// grouped output deterministic.
type AggState struct {
	Kind  AggKind
	count int64
	sum   types.Datum // nil, int64, or float64 — mirrors expr.AggState
	min   types.Datum
	max   types.Datum
}

// NewAggState returns an empty accumulator.
func NewAggState(kind AggKind) *AggState { return &AggState{Kind: kind} }

// AddStar folds n rows into a count(*) accumulator.
func (s *AggState) AddStar(n int64) { s.count += n }

func (s *AggState) errNonNumeric(v types.Datum) error {
	name := "sum"
	if s.Kind == AggAvg {
		name = "avg"
	}
	return fmt.Errorf("%s expects numeric input, got %s", name, types.TypeOf(v))
}

// AddDatum folds one value (the grouped per-row fall-through for bare
// column arguments).
func (s *AggState) AddDatum(v types.Datum) error {
	if v == nil {
		return nil
	}
	s.count++
	switch s.Kind {
	case AggCount:
		return nil
	case AggMin:
		if s.min == nil || types.Compare(v, s.min) < 0 {
			s.min = v
		}
		return nil
	case AggMax:
		if s.max == nil || types.Compare(v, s.max) > 0 {
			s.max = v
		}
		return nil
	case AggSum, AggAvg:
		switch cur := s.sum.(type) {
		case nil:
			switch v.(type) {
			case int64, float64:
				s.sum = v
				return nil
			}
			return s.errNonNumeric(v)
		case int64:
			switch vv := v.(type) {
			case int64:
				s.sum = cur + vv
			case float64:
				s.sum = float64(cur) + vv
			default:
				return s.errNonNumeric(v)
			}
			return nil
		case float64:
			switch vv := v.(type) {
			case int64:
				s.sum = cur + float64(vv)
			case float64:
				s.sum = cur + vv
			default:
				return s.errNonNumeric(v)
			}
			return nil
		}
	}
	return nil
}

// AddDatums folds the selected elements of a raw column chunk (the kernel
// for bare-column aggregate arguments; sel nil = all).
func (s *AggState) AddDatums(col []types.Datum, sel Sel) error {
	switch s.Kind {
	case AggCount:
		if sel == nil {
			for _, v := range col {
				if v != nil {
					s.count++
				}
			}
			return nil
		}
		for _, i := range sel {
			if col[i] != nil {
				s.count++
			}
		}
		return nil
	case AggMin, AggMax:
		each := func(v types.Datum) {
			if v == nil {
				return
			}
			s.count++
			if s.Kind == AggMin {
				if s.min == nil || types.Compare(v, s.min) < 0 {
					s.min = v
				}
			} else {
				if s.max == nil || types.Compare(v, s.max) > 0 {
					s.max = v
				}
			}
		}
		if sel == nil {
			for _, v := range col {
				each(v)
			}
		} else {
			for _, i := range sel {
				each(col[i])
			}
		}
		return nil
	case AggSum, AggAvg:
		// typed accumulation: stay in int64 until the first float64, then
		// accumulate in float64 — the exact promotion expr.AggState does
		// value-by-value.
		var sumI int64
		var sumF float64
		isFloat := false
		switch cur := s.sum.(type) {
		case int64:
			sumI = cur
		case float64:
			sumF = cur
			isFloat = true
		}
		n := int64(0)
		fold := func(v types.Datum) error {
			if v == nil {
				return nil
			}
			n++
			switch vv := v.(type) {
			case int64:
				if isFloat {
					sumF += float64(vv)
				} else {
					sumI += vv
				}
			case float64:
				if !isFloat {
					isFloat = true
					sumF = float64(sumI)
				}
				sumF += vv
			default:
				return s.errNonNumeric(v)
			}
			return nil
		}
		if sel == nil {
			for _, v := range col {
				if err := fold(v); err != nil {
					return err
				}
			}
		} else {
			for _, i := range sel {
				if err := fold(col[i]); err != nil {
					return err
				}
			}
		}
		s.count += n
		if s.sum == nil && n == 0 {
			return nil // no input: sum stays NULL
		}
		if isFloat {
			s.sum = sumF
		} else {
			s.sum = sumI
		}
		return nil
	}
	return nil
}

// AddVec folds an evaluated numeric vector (computed aggregate arguments,
// e.g. sum(price * discount)).
func (s *AggState) AddVec(v *NumVec) error {
	switch s.Kind {
	case AggCount:
		for j := 0; j < v.N; j++ {
			if !v.Null[j] {
				s.count++
			}
		}
		return nil
	case AggMin, AggMax:
		for j := 0; j < v.N; j++ {
			if v.Null[j] {
				continue
			}
			if err := s.AddDatum(v.At(j)); err != nil {
				return err
			}
		}
		return nil
	case AggSum, AggAvg:
		if v.Float {
			var sumF float64
			n := int64(0)
			for j, f := range v.Floats {
				if v.Null[j] {
					continue
				}
				sumF += f
				n++
			}
			if n == 0 {
				return nil
			}
			s.count += n
			switch cur := s.sum.(type) {
			case nil:
				s.sum = sumF
			case int64:
				s.sum = float64(cur) + sumF
			case float64:
				s.sum = cur + sumF
			}
			return nil
		}
		var sumI int64
		n := int64(0)
		for j, iv := range v.Ints {
			if v.Null[j] {
				continue
			}
			sumI += iv
			n++
		}
		if n == 0 {
			return nil
		}
		s.count += n
		switch cur := s.sum.(type) {
		case nil:
			s.sum = sumI
		case int64:
			s.sum = cur + sumI
		case float64:
			s.sum = cur + float64(sumI)
		}
		return nil
	}
	return nil
}

// Merge folds another partial state (from a later chunk range) into s.
// Call in scan order to keep results identical to a sequential fold.
func (s *AggState) Merge(o *AggState) error {
	s.count += o.count
	if o.min != nil && (s.min == nil || types.Compare(o.min, s.min) < 0) {
		s.min = o.min
	}
	if o.max != nil && (s.max == nil || types.Compare(o.max, s.max) > 0) {
		s.max = o.max
	}
	if o.sum != nil {
		switch cur := s.sum.(type) {
		case nil:
			s.sum = o.sum
		case int64:
			switch ov := o.sum.(type) {
			case int64:
				s.sum = cur + ov
			case float64:
				s.sum = float64(cur) + ov
			}
		case float64:
			switch ov := o.sum.(type) {
			case int64:
				s.sum = cur + float64(ov)
			case float64:
				s.sum = cur + ov
			}
		}
	}
	return nil
}

// Result finalizes the aggregate, mirroring expr.AggState.Result.
func (s *AggState) Result() types.Datum {
	switch s.Kind {
	case AggCount:
		return s.count
	case AggSum:
		return s.sum // nil when no input rows, as in SQL
	case AggMin:
		return s.min
	case AggMax:
		return s.max
	case AggAvg:
		if s.count == 0 || s.sum == nil {
			return nil
		}
		switch v := s.sum.(type) {
		case int64:
			return float64(v) / float64(s.count)
		case float64:
			return v / float64(s.count)
		}
	}
	return nil
}
