package expr

import (
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"citusgo/internal/jsonb"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// ScalarFunc computes a scalar function over evaluated arguments.
type ScalarFunc func(args []types.Datum) (types.Datum, error)

// Scalars is the built-in scalar function registry. Additional functions
// (e.g. from "extensions") can be registered at init time.
var Scalars = map[string]ScalarFunc{}

// RegisterScalar adds fn under name (lower-cased). Extensions use this the
// way PostgreSQL extensions add SQL-callable functions.
func RegisterScalar(name string, fn ScalarFunc) { Scalars[strings.ToLower(name)] = fn }

func argErr(name string, want string) error {
	return fmt.Errorf("function %s expects %s", name, want)
}

func init() {
	RegisterScalar("now", func(args []types.Datum) (types.Datum, error) {
		return time.Now().UTC(), nil
	})
	RegisterScalar("random", func(args []types.Datum) (types.Datum, error) {
		return rand.Float64(), nil
	})
	RegisterScalar("md5", func(args []types.Datum) (types.Datum, error) {
		if len(args) != 1 {
			return nil, argErr("md5", "1 argument")
		}
		if args[0] == nil {
			return nil, nil
		}
		sum := md5.Sum([]byte(types.Format(args[0])))
		return hex.EncodeToString(sum[:]), nil
	})
	RegisterScalar("floor", numeric1("floor", math.Floor))
	RegisterScalar("ceil", numeric1("ceil", math.Ceil))
	RegisterScalar("ceiling", numeric1("ceiling", math.Ceil))
	RegisterScalar("sqrt", numeric1("sqrt", math.Sqrt))
	RegisterScalar("abs", func(args []types.Datum) (types.Datum, error) {
		if len(args) != 1 {
			return nil, argErr("abs", "1 argument")
		}
		switch v := args[0].(type) {
		case nil:
			return nil, nil
		case int64:
			if v < 0 {
				return -v, nil
			}
			return v, nil
		case float64:
			return math.Abs(v), nil
		}
		return nil, argErr("abs", "a numeric argument")
	})
	RegisterScalar("round", func(args []types.Datum) (types.Datum, error) {
		if len(args) < 1 || len(args) > 2 {
			return nil, argErr("round", "1 or 2 arguments")
		}
		if args[0] == nil {
			return nil, nil
		}
		f, err := toFloat(args[0])
		if err != nil {
			return nil, err
		}
		digits := 0
		if len(args) == 2 {
			d, ok := args[1].(int64)
			if !ok {
				return nil, argErr("round", "integer digits")
			}
			digits = int(d)
		}
		scale := math.Pow(10, float64(digits))
		return math.Round(f*scale) / scale, nil
	})
	RegisterScalar("mod", func(args []types.Datum) (types.Datum, error) {
		if len(args) != 2 {
			return nil, argErr("mod", "2 arguments")
		}
		return arith(sql.OpMod, args[0], args[1])
	})
	RegisterScalar("power", func(args []types.Datum) (types.Datum, error) {
		if len(args) != 2 {
			return nil, argErr("power", "2 arguments")
		}
		a, err := toFloat(args[0])
		if err != nil {
			return nil, err
		}
		b, err := toFloat(args[1])
		if err != nil {
			return nil, err
		}
		return math.Pow(a, b), nil
	})

	RegisterScalar("length", func(args []types.Datum) (types.Datum, error) {
		if len(args) != 1 {
			return nil, argErr("length", "1 argument")
		}
		if args[0] == nil {
			return nil, nil
		}
		return int64(len(types.Format(args[0]))), nil
	})
	RegisterScalar("lower", text1("lower", strings.ToLower))
	RegisterScalar("upper", text1("upper", strings.ToUpper))
	RegisterScalar("trim", text1("trim", strings.TrimSpace))
	RegisterScalar("substr", substrFunc)
	RegisterScalar("substring", substrFunc)
	RegisterScalar("replace", func(args []types.Datum) (types.Datum, error) {
		if len(args) != 3 {
			return nil, argErr("replace", "3 arguments")
		}
		for _, a := range args {
			if a == nil {
				return nil, nil
			}
		}
		return strings.ReplaceAll(types.Format(args[0]), types.Format(args[1]), types.Format(args[2])), nil
	})
	RegisterScalar("strpos", func(args []types.Datum) (types.Datum, error) {
		if len(args) != 2 {
			return nil, argErr("strpos", "2 arguments")
		}
		if args[0] == nil || args[1] == nil {
			return nil, nil
		}
		return int64(strings.Index(types.Format(args[0]), types.Format(args[1])) + 1), nil
	})
	RegisterScalar("concat", func(args []types.Datum) (types.Datum, error) {
		var sb strings.Builder
		for _, a := range args {
			if a != nil {
				sb.WriteString(types.Format(a))
			}
		}
		return sb.String(), nil
	})
	RegisterScalar("repeat", func(args []types.Datum) (types.Datum, error) {
		if len(args) != 2 {
			return nil, argErr("repeat", "2 arguments")
		}
		if args[0] == nil || args[1] == nil {
			return nil, nil
		}
		n, ok := args[1].(int64)
		if !ok || n < 0 {
			return nil, argErr("repeat", "a non-negative count")
		}
		return strings.Repeat(types.Format(args[0]), int(n)), nil
	})

	RegisterScalar("nullif", func(args []types.Datum) (types.Datum, error) {
		if len(args) != 2 {
			return nil, argErr("nullif", "2 arguments")
		}
		if args[0] != nil && args[1] != nil && types.Compare(args[0], args[1]) == 0 {
			return nil, nil
		}
		return args[0], nil
	})
	RegisterScalar("greatest", extremum(1))
	RegisterScalar("least", extremum(-1))

	RegisterScalar("date_trunc", func(args []types.Datum) (types.Datum, error) {
		if len(args) != 2 {
			return nil, argErr("date_trunc", "2 arguments")
		}
		if args[0] == nil || args[1] == nil {
			return nil, nil
		}
		field, ok := args[0].(string)
		if !ok {
			return nil, argErr("date_trunc", "a text field name")
		}
		ts, ok := args[1].(time.Time)
		if !ok {
			parsed, err := types.ParseTimestamp(types.Format(args[1]))
			if err != nil {
				return nil, err
			}
			ts = parsed
		}
		ts = ts.UTC()
		switch strings.ToLower(field) {
		case "second":
			return ts.Truncate(time.Second), nil
		case "minute":
			return ts.Truncate(time.Minute), nil
		case "hour":
			return ts.Truncate(time.Hour), nil
		case "day":
			return time.Date(ts.Year(), ts.Month(), ts.Day(), 0, 0, 0, 0, time.UTC), nil
		case "week":
			d := ts
			for d.Weekday() != time.Monday {
				d = d.AddDate(0, 0, -1)
			}
			return time.Date(d.Year(), d.Month(), d.Day(), 0, 0, 0, 0, time.UTC), nil
		case "month":
			return time.Date(ts.Year(), ts.Month(), 1, 0, 0, 0, 0, time.UTC), nil
		case "year":
			return time.Date(ts.Year(), 1, 1, 0, 0, 0, 0, time.UTC), nil
		}
		return nil, fmt.Errorf("unsupported date_trunc field %q", field)
	})
	RegisterScalar("date_part", func(args []types.Datum) (types.Datum, error) {
		if len(args) != 2 {
			return nil, argErr("date_part", "2 arguments")
		}
		if args[0] == nil || args[1] == nil {
			return nil, nil
		}
		field, _ := args[0].(string)
		ts, ok := args[1].(time.Time)
		if !ok {
			return nil, argErr("date_part", "a timestamp")
		}
		switch strings.ToLower(field) {
		case "year":
			return float64(ts.Year()), nil
		case "month":
			return float64(ts.Month()), nil
		case "day":
			return float64(ts.Day()), nil
		case "hour":
			return float64(ts.Hour()), nil
		case "epoch":
			return float64(ts.Unix()), nil
		}
		return nil, fmt.Errorf("unsupported date_part field %q", field)
	})
	RegisterScalar("to_timestamp", func(args []types.Datum) (types.Datum, error) {
		if len(args) != 1 {
			return nil, argErr("to_timestamp", "1 argument")
		}
		if args[0] == nil {
			return nil, nil
		}
		f, err := toFloat(args[0])
		if err != nil {
			return nil, err
		}
		return time.Unix(int64(f), 0).UTC(), nil
	})

	RegisterScalar("jsonb_array_length", func(args []types.Datum) (types.Datum, error) {
		if len(args) != 1 {
			return nil, argErr("jsonb_array_length", "1 argument")
		}
		if args[0] == nil {
			return nil, nil
		}
		j, ok := args[0].(jsonb.Value)
		if !ok {
			return nil, argErr("jsonb_array_length", "a jsonb argument")
		}
		n, err := j.ArrayLength()
		if err != nil {
			return nil, err
		}
		return int64(n), nil
	})
	RegisterScalar("jsonb_path_query_array", func(args []types.Datum) (types.Datum, error) {
		if len(args) != 2 {
			return nil, argErr("jsonb_path_query_array", "2 arguments")
		}
		if args[0] == nil || args[1] == nil {
			return nil, nil
		}
		j, ok := args[0].(jsonb.Value)
		if !ok {
			return nil, argErr("jsonb_path_query_array", "a jsonb document")
		}
		path, ok := args[1].(string)
		if !ok {
			return nil, argErr("jsonb_path_query_array", "a text path")
		}
		return j.PathQueryArray(path)
	})
	RegisterScalar("jsonb_typeof", func(args []types.Datum) (types.Datum, error) {
		if len(args) != 1 {
			return nil, argErr("jsonb_typeof", "1 argument")
		}
		j, ok := args[0].(jsonb.Value)
		if !ok {
			return nil, argErr("jsonb_typeof", "a jsonb argument")
		}
		return j.Kind().String(), nil
	})

	for name := range Scalars {
		immutableFuncs[name] = name != "now" && name != "random"
	}
}

func numeric1(name string, fn func(float64) float64) ScalarFunc {
	return func(args []types.Datum) (types.Datum, error) {
		if len(args) != 1 {
			return nil, argErr(name, "1 argument")
		}
		if args[0] == nil {
			return nil, nil
		}
		f, err := toFloat(args[0])
		if err != nil {
			return nil, err
		}
		return fn(f), nil
	}
}

func text1(name string, fn func(string) string) ScalarFunc {
	return func(args []types.Datum) (types.Datum, error) {
		if len(args) != 1 {
			return nil, argErr(name, "1 argument")
		}
		if args[0] == nil {
			return nil, nil
		}
		return fn(types.Format(args[0])), nil
	}
}

func substrFunc(args []types.Datum) (types.Datum, error) {
	if len(args) < 2 || len(args) > 3 {
		return nil, argErr("substr", "2 or 3 arguments")
	}
	for _, a := range args {
		if a == nil {
			return nil, nil
		}
	}
	s := types.Format(args[0])
	start, ok := args[1].(int64)
	if !ok {
		return nil, argErr("substr", "an integer start")
	}
	from := int(start) - 1
	if from < 0 {
		from = 0
	}
	if from > len(s) {
		return "", nil
	}
	end := len(s)
	if len(args) == 3 {
		n, ok := args[2].(int64)
		if !ok || n < 0 {
			return nil, argErr("substr", "a non-negative length")
		}
		if from+int(n) < end {
			end = from + int(n)
		}
	}
	return s[from:end], nil
}

func extremum(sign int) ScalarFunc {
	return func(args []types.Datum) (types.Datum, error) {
		var best types.Datum
		for _, a := range args {
			if a == nil {
				continue
			}
			if best == nil || sign*types.Compare(a, best) > 0 {
				best = a
			}
		}
		return best, nil
	}
}

func compileFunc(n *sql.FuncCall, r Resolver) (Evaluator, error) {
	name := strings.ToLower(n.Name)
	if IsAggregate(name) {
		return nil, fmt.Errorf("aggregate function %s is not allowed here", name)
	}
	// coalesce needs lazy evaluation
	if name == "coalesce" {
		subs := make([]Evaluator, len(n.Args))
		for i, a := range n.Args {
			ev, err := Compile(a, r)
			if err != nil {
				return nil, err
			}
			subs[i] = ev
		}
		return func(c *Ctx) (types.Datum, error) {
			for _, sub := range subs {
				v, err := sub(c)
				if err != nil {
					return nil, err
				}
				if v != nil {
					return v, nil
				}
			}
			return nil, nil
		}, nil
	}
	fn, ok := Scalars[name]
	if !ok {
		return nil, fmt.Errorf("function %s does not exist", name)
	}
	subs := make([]Evaluator, len(n.Args))
	for i, a := range n.Args {
		ev, err := Compile(a, r)
		if err != nil {
			return nil, err
		}
		subs[i] = ev
	}
	return func(c *Ctx) (types.Datum, error) {
		args := make([]types.Datum, len(subs))
		for i, sub := range subs {
			v, err := sub(c)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return fn(args)
	}, nil
}

// EvalConst evaluates a constant expression (no columns), e.g. DDL
// defaults at insert time or LIMIT clauses.
func EvalConst(e sql.Expr) (types.Datum, error) {
	ev, err := Compile(e, nil)
	if err != nil {
		return nil, err
	}
	return ev(&Ctx{})
}

// ErrNotConstant reports a non-constant expression where one was required.
var ErrNotConstant = errors.New("expression is not constant")
