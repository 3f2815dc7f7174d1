// Counting answers of full CQs (§4.4): the decomposition engine counts
// |q(D)| in polynomial time for bounded-ghw queries (Proposition 4.14).
// The queries are compiled once into prepared plans, the database is
// compiled once, and every subsequent round applies a Delta through the
// incremental path: CompiledDB.Apply produces the next snapshot
// copy-on-write and each BoundQuery rebinds to it, recomputing only what
// the delta touches — the compile-once / update-many shape of a serving
// workload — with the naive engine as ground truth.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"d2cq"
)

func main() {
	ctx := context.Background()
	// One shared engine: both queries are compiled through its
	// decomposition cache.
	eng := d2cq.NewEngine()

	// Workload 1: count paths of length 3 in a small social graph.
	pathQ, err := d2cq.ParseQuery("Follows(a,b), Follows(b,c), Follows(c,d)")
	if err != nil {
		log.Fatal(err)
	}
	// Workload 2: triangle counting — a ghw-2 (cyclic) full CQ.
	triQ, err := d2cq.ParseQuery("Follows(x,y), Follows(y,z), Follows(z,x)")
	if err != nil {
		log.Fatal(err)
	}
	pathPrep, err := eng.Prepare(ctx, pathQ)
	if err != nil {
		log.Fatal(err)
	}
	triPrep, err := eng.Prepare(ctx, triQ)
	if err != nil {
		log.Fatal(err)
	}

	// Compile and bind once, before any data arrives; afterwards every round
	// is a Delta. One Apply per round builds the next snapshot (shared
	// relations, shared dictionary) and both bound queries rebind to it
	// incrementally — hence BindMaintained, whose cover-based node relations
	// are what maintenance starts from. The mirror cq.Database only exists
	// for the naive ground-truth check at the end.
	people := []string{"ann", "bob", "cat", "dan", "eve"}
	mirror := d2cq.Database{}
	cdb, err := eng.CompileDB(ctx, mirror)
	if err != nil {
		log.Fatal(err)
	}
	pathBound, err := pathPrep.BindMaintained(ctx, cdb)
	if err != nil {
		log.Fatal(err)
	}
	triBound, err := triPrep.BindMaintained(ctx, cdb)
	if err != nil {
		log.Fatal(err)
	}
	for round, p := range people {
		delta := d2cq.NewDelta().
			Add("Follows", p, people[(round+1)%len(people)]).
			Add("Follows", p, people[(round+2)%len(people)])
		mirror.Add("Follows", p, people[(round+1)%len(people)])
		mirror.Add("Follows", p, people[(round+2)%len(people)])

		start := time.Now()
		cdb, err = cdb.Apply(ctx, delta)
		if err != nil {
			log.Fatal(err)
		}
		pathBound, err = pathBound.Rebind(ctx, cdb)
		if err != nil {
			log.Fatal(err)
		}
		triBound, err = triBound.Rebind(ctx, cdb)
		if err != nil {
			log.Fatal(err)
		}
		updateT := time.Since(start)

		start = time.Now()
		paths, err := pathBound.Count(ctx)
		if err != nil {
			log.Fatal(err)
		}
		tris, err := triBound.Count(ctx)
		if err != nil {
			log.Fatal(err)
		}
		countT := time.Since(start)
		fmt.Printf("after %d inserts: %3d paths of length 3, %2d directed triangles  (update %s, count %s)\n",
			2*(round+1), paths, tris, updateT.Round(time.Microsecond), countT.Round(time.Microsecond))
	}

	// Ground truth from the naive engine on the final snapshot: the
	// incrementally maintained counts must agree exactly.
	finalPaths, err := pathBound.Count(ctx)
	if err != nil {
		log.Fatal(err)
	}
	finalTris, err := triBound.Count(ctx)
	if err != nil {
		log.Fatal(err)
	}
	naiveP, err := d2cq.NaiveCount(pathQ, mirror)
	if err != nil {
		log.Fatal(err)
	}
	naiveT, err := d2cq.NaiveCount(triQ, mirror)
	if err != nil {
		log.Fatal(err)
	}
	if naiveP != finalPaths || naiveT != finalTris {
		log.Fatalf("incremental counts diverge from naive ground truth: %d/%d vs %d/%d",
			finalPaths, finalTris, naiveP, naiveT)
	}
	fmt.Printf("naive ground truth: %d paths, %d triangles — incremental path agrees\n", naiveP, naiveT)

	// The width report explains why both are tractable: bounded ghw.
	for _, q := range []d2cq.Query{pathQ, triQ} {
		res, err := d2cq.GHW(q.Hypergraph(), nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-55s %s\n", q.String(), res)
	}
	fmt.Println("engine:", eng.Stats())
}
