package main

import (
	"fmt"
	"time"

	"citusgo/internal/sql"
)

// parserMicro is the mean cost of sql.Parse and of Statement.String() over
// a workload's generated statement texts: what a statement-cache miss pays.
func parserMicro(texts []string) (map[string]float64, error) {
	stmts := make([]sql.Statement, 0, len(texts))
	start := time.Now()
	for _, text := range texts {
		stmt, err := sql.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", text, err)
		}
		stmts = append(stmts, stmt)
	}
	parse := time.Since(start)
	start = time.Now()
	size := 0
	for _, stmt := range stmts {
		size += len(stmt.String())
	}
	deparse := time.Since(start)
	microSink = size
	n := float64(len(texts))
	return map[string]float64{
		"sql.parse_us":   ratio(float64(parse.Nanoseconds())/1e3, n),
		"sql.deparse_us": ratio(float64(deparse.Nanoseconds())/1e3, n),
	}, nil
}

var microSink int
