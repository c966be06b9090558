package main

import "fmt"

// sizes fixes how much data each workload loads and how long it warms up.
// The data sizes are part of the benchmark's definition: they are frozen
// so that counts repeat across runs and commits.
type sizes struct {
	CrudRows    int // rows of 10 x 50B text fields
	CrudWarm    int // warm-up operations per client
	CrudSampled int // keys fully checked at the end

	TxnRows int // rows in each of a1, a2
	TxnWarm int // warm-up transactions per client

	LineRows     int // columnar lineitem rows
	Orders       int // row-store orders (lineitem_row has ~4 per order)
	Customers    int
	Parts        int // distinct l_partkey values
	AnalyticWarm int // warm-up rounds

	IngestBase      int // events loaded before timing
	IngestBatch     int // events per COPY batch
	IngestBatches   int // COPY batches per round
	IngestDash      int // dashboard queries per round
	IngestCap       int // events after which the schedule ends
	IngestWarm      int // warm-up rounds
	MicroStatements int // statement texts per parser micro-measurement
	LadderSteps     int // statements per class per ladder rung
}

// fullSizes is the benchmark as BENCHMARK.json describes it.
func fullSizes() sizes {
	return sizes{
		CrudRows: 100_000, CrudWarm: 2_000, CrudSampled: 1_000,
		TxnRows: 50_000, TxnWarm: 500,
		LineRows: 200_000, Orders: 12_000, Customers: 1_200, Parts: 20_000, AnalyticWarm: 2,
		IngestBase: 10_000, IngestBatch: 500, IngestBatches: 4, IngestDash: 1, IngestCap: 100_000, IngestWarm: 1,
		MicroStatements: 1_000, LadderSteps: 2_000,
	}
}

// tinySizes keeps `go test` to about a second per workload.
func tinySizes() sizes {
	return sizes{
		CrudRows: 2_000, CrudWarm: 50, CrudSampled: 100,
		TxnRows: 1_000, TxnWarm: 20,
		LineRows: 8_000, Orders: 400, Customers: 60, Parts: 500, AnalyticWarm: 1,
		IngestBase: 200, IngestBatch: 50, IngestBatches: 2, IngestDash: 1, IngestCap: 2_000, IngestWarm: 1,
		MicroStatements: 50, LadderSteps: 50,
	}
}

func newWorkload(name string, seed int64, sz sizes) (workload, error) {
	switch name {
	case "crud_point":
		return newCrud(seed, sz), nil
	case "txn_mixed":
		return newTxn(seed, sz), nil
	case "analytics_fanout":
		return newAnalytics(seed, sz), nil
	case "ingest_live":
		return newIngest(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}
