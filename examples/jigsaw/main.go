// Jigsaw extraction: the constructive heart of the paper. We build a
// "decorated" degree-2 hypergraph whose generalized hypertree width is high,
// then run the Theorem 4.7 pipeline — reduce (Lemma 3.6), dualise, find a
// grid minor (the Excluded Grid analogue), and dilute to a jigsaw
// (Lemma 4.4) — and finally double-check the answer with the NP decision
// procedure of Theorem 3.5.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"d2cq"
	"d2cq/internal/graph"
)

func main() {
	// Host: the dual of a subdivided 3×3 grid — a degree-2 hypergraph that
	// hides a 2×2 jigsaw behind extra structure.
	base := graph.Subdivide(graph.Grid(3, 3))
	host := d2cq.HypergraphFromGraph(base).Dual()
	fmt.Println("host:", host.Stats())

	width, err := d2cq.GHW(host, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("host ghw:", width)

	seq, result, err := d2cq.ExtractJigsaw(host, 2)
	if err != nil {
		log.Fatal(err)
	}
	if seq == nil {
		log.Fatal("no 2×2 jigsaw dilution found — host width too low")
	}
	fmt.Printf("extracted a 2×2 jigsaw via %d dilution operations:\n", len(seq))
	for i, op := range seq {
		fmt.Printf("  %2d. %s\n", i+1, op)
	}
	if n, m, ok := d2cq.IsJigsaw(result); ok {
		fmt.Printf("result recognised as the %d×%d jigsaw\n", n, m)
	}

	// Cross-check with the decision procedure (Theorem 3.5). Deciding
	// dilutions is NP-complete, so we demonstrate it on a smaller pair:
	// the 3×3 jigsaw dilutes to the 2×2 jigsaw.
	ok, err := d2cq.DecideDilution(d2cq.Jigsaw(3, 3), result)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Decide confirms J(3,3) dilutes to the extracted jigsaw:", ok)
	if !ok {
		log.Fatal("Decide rejects a dilution the extraction found")
	}

	// Control: an acyclic host contains no jigsaw dilution at all.
	tree := d2cq.HypergraphFromGraph(graph.Star(6)).Dual()
	seq, _, err = d2cq.ExtractJigsaw(tree, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("acyclic control host yields a jigsaw:", seq != nil)
	if seq != nil {
		log.Fatal("an acyclic host yielded a jigsaw dilution")
	}

	// The extracted jigsaw is also a query shape: its canonical BCQ
	// compiles to a plan of width ghw. A width-1 engine refuses it, the
	// default engine prepares it once for any number of databases.
	ctx := context.Background()
	q := d2cq.CanonicalQuery(result)
	_, err = d2cq.NewEngine(d2cq.WithMaxWidth(1)).Prepare(ctx, q)
	fmt.Println("width-1 engine refuses the jigsaw query:", errors.Is(err, d2cq.ErrWidthExceeded))
	if !errors.Is(err, d2cq.ErrWidthExceeded) {
		log.Fatal("a width-1 engine accepted the jigsaw query, whose ghw is 2")
	}
	prep, err := d2cq.Prepare(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("default engine plan width:", prep.Plan().Width())
}
