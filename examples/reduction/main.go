// Lower-bound machinery end to end: compile a k-Clique instance into a BCQ
// over the k×k-jigsaw (Theorem 4.8's hardness witness) and pull the instance
// backwards along a dilution sequence onto a larger host (Theorem 3.4),
// preserving satisfiability and the exact number of solutions
// (Theorem 4.15).
package main

import (
	"context"
	"fmt"
	"log"

	"d2cq"
	"d2cq/internal/graph"
)

func main() {
	ctx := context.Background()
	// The input graph: a 5-cycle with one chord — contains a triangle?
	g := graph.Cycle(5)
	g.AddEdge(0, 2) // chord: now the triangle {0,1,2} exists
	fmt.Println("input graph:", g)

	inst, err := d2cq.CliqueToJigsaw(g, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("jigsaw query:", inst.Q)
	// The jigsaw query shape is fixed by k, not by the input graph: prepare
	// it once and reuse the plan for every instance database.
	prep, err := d2cq.Prepare(ctx, inst.Q)
	if err != nil {
		log.Fatal(err)
	}
	sat, err := prep.Bool(ctx, inst.D)
	if err != nil {
		log.Fatal(err)
	}
	count, err := prep.Count(ctx, inst.D)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3-clique exists: %v (%d ordered triangles)\n", sat, count)

	// Now pretend the jigsaw arose as a dilution of a bigger degree-2 host:
	// the 3×3 jigsaw dilutes to the 2×2, and more relevantly the host dual
	// of a subdivided grid dilutes to the 3×3 jigsaw. Pull the instance
	// back along that dilution.
	host := d2cq.HypergraphFromGraph(graph.Subdivide(graph.Grid(3, 3))).Dual()
	seq, jig, err := d2cq.ExtractJigsaw(host, 3)
	if err != nil {
		log.Fatal(err)
	}
	if seq == nil {
		log.Fatal("host does not contain the 3×3 jigsaw")
	}
	steps, _, err := d2cq.ApplyDilutionSequence(host, seq)
	if err != nil {
		log.Fatal(err)
	}
	aligned, err := d2cq.AlignInstance(inst.Q, inst.D, jig)
	if err != nil {
		log.Fatal(err)
	}
	pulled, err := d2cq.ReverseDilution(steps, aligned)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pulled the instance back along %d dilution steps onto the host (∥D∥ %d → %d)\n",
		len(steps), aligned.D.Size(), pulled.D.Size())

	hostPrep, err := d2cq.Prepare(ctx, pulled.Q)
	if err != nil {
		log.Fatal(err)
	}
	sat2, err := hostPrep.Bool(ctx, pulled.D)
	if err != nil {
		log.Fatal(err)
	}
	count2, err := hostPrep.Count(ctx, pulled.D)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host instance: satisfiable=%v, solutions=%d (parsimonious: %v)\n",
		sat2, count2, count2 == count)
	if sat2 != sat || count2 != count {
		log.Fatalf("the reduction is not parsimonious: host %v/%d, jigsaw %v/%d", sat2, count2, sat, count)
	}
}
