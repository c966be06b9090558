package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/types"
	"citusgo/internal/wire"
)

// The entry-point ladder times the same crud_point statement at four
// public entry points of the program, from the outside in:
//
//	L0 cluster.Conn().Query          client -> TCP -> coordinator -> TCP -> worker
//	L1 cluster.Session().Exec        coordinator in-process -> TCP -> worker
//	L2 cluster.ConnTo(owner).Query   client -> TCP -> worker, shard-level text
//	L3 cluster.SessionOn(owner).Exec worker in-process, shard-level text
//
// The differences between neighbouring rungs are the layers between them,
// and the parts sum to the whole by construction.

// ladderRungs holds one open entry point of each kind.
type ladderRungs struct {
	c        *cluster.Cluster
	l0       *wire.Conn
	l1       *engine.Session
	l2       map[int]*wire.Conn
	l3       map[int]*engine.Session
	lat      [4][]float64
	recorded bool
}

func newLadderRungs(c *cluster.Cluster) *ladderRungs {
	return &ladderRungs{c: c, l0: c.Conn(), l1: c.Session(), l2: map[int]*wire.Conn{}, l3: map[int]*engine.Session{}}
}

func (l *ladderRungs) close() {
	l.l0.Close()
	for _, conn := range l.l2 {
		conn.Close()
	}
}

// owner finds the worker holding key's shard and the shard's table name.
func (l *ladderRungs) owner(key int64) (node int, shardTable string, err error) {
	shard, err := l.c.Meta.ShardForValue("usertable", key)
	if err != nil {
		return 0, "", err
	}
	nodeID, err := l.c.Meta.PrimaryPlacement(shard.ID)
	if err != nil {
		return 0, "", err
	}
	return nodeID - 1, shard.ShardName(), nil
}

// step runs one statement at every rung and checks each reply with ok.
func (l *ladderRungs) step(text string, key int64, params []types.Datum, ok func(*engine.Result) error) error {
	node, shardTable, err := l.owner(key)
	if err != nil {
		return err
	}
	if l.l2[node] == nil {
		l.l2[node] = l.c.ConnTo(node)
		l.l3[node] = l.c.SessionOn(node)
	}
	shardText := strings.Replace(text, "usertable", shardTable, 1)
	rungs := [4]func() (*engine.Result, error){
		func() (*engine.Result, error) { return l.l0.Query(text, params...) },
		func() (*engine.Result, error) { return l.l1.Exec(text, params...) },
		func() (*engine.Result, error) { return l.l2[node].Query(shardText, params...) },
		func() (*engine.Result, error) { return l.l3[node].Exec(shardText, params...) },
	}
	for i, rung := range rungs {
		start := time.Now()
		res, err := rung()
		d := time.Since(start)
		if err == nil {
			err = ok(res)
		}
		if err != nil {
			return fmt.Errorf("L%d %s: %w", i, firstLine(shardText), err)
		}
		if l.recorded {
			l.lat[i] = append(l.lat[i], float64(d.Nanoseconds())/1e3)
		}
	}
	return nil
}

func (l *ladderRungs) means() ladder {
	return ladder{mean(l.lat[0]), mean(l.lat[1]), mean(l.lat[2]), mean(l.lat[3])}
}

// walkLadder boots a crud_point cluster and walks both statement classes
// down the ladder.
func walkLadder(seed int64, sz sizes) (read, write ladder, err error) {
	sz.CrudRows /= 5 // point statements cost the same on a smaller table; loading it does not
	r, err := newRep("crud_point", seed, sz, false)
	if err != nil {
		return read, write, err
	}
	defer r.close()
	w := r.w.(*crudWorkload)
	rng := rand.New(rand.NewSource(seed))
	reads, writes := newLadderRungs(r.c), newLadderRungs(r.c)
	defer reads.close()
	defer writes.close()
	warm := sz.LadderSteps / 10
	for i := 0; i < warm+sz.LadderSteps; i++ {
		reads.recorded, writes.recorded = i >= warm, i >= warm
		key := int64(rng.Intn(sz.CrudRows))
		f := rng.Intn(crudFields)
		err := reads.step(w.selectSQL, key, []types.Datum{key}, func(res *engine.Result) error {
			if len(res.Rows) != 1 || len(res.Rows[0]) != 1+crudFields {
				return fmt.Errorf("key %d: %d rows", key, len(res.Rows))
			}
			return nil
		})
		if err != nil {
			return read, write, err
		}
		val := fieldValue(seed, key, f, uint32(i)+1)
		err = writes.step(w.updateSQL[f], key, []types.Datum{val, key}, func(res *engine.Result) error {
			if res.Affected != 1 {
				return fmt.Errorf("key %d: %d rows affected", key, res.Affected)
			}
			return nil
		})
		if err != nil {
			return read, write, err
		}
	}
	return reads.means(), writes.means(), nil
}
