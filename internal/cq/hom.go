package cq

// Homomorphism is a mapping from the variables of one query to the terms of
// another that sends every atom onto an atom.
type Homomorphism map[string]Term

// FindHomomorphism searches for a homomorphism from q1 to q2: a mapping h of
// the variables of q1 to terms of q2 (constants map to themselves) such that
// h(A) is an atom of q2 for every atom A of q1. Backtracking over atoms.
func FindHomomorphism(q1, q2 Query) (Homomorphism, bool) {
	// Index q2 atoms by relation.
	byRel := map[string][]Atom{}
	for _, a := range q2.Atoms {
		byRel[a.Rel] = append(byRel[a.Rel], a)
	}
	assign := Homomorphism{}
	var match func(i int) bool
	match = func(i int) bool {
		if i == len(q1.Atoms) {
			return true
		}
		a := q1.Atoms[i]
		for _, b := range byRel[a.Rel] {
			if len(b.Args) != len(a.Args) {
				continue
			}
			// Try to unify a into b under the current assignment.
			var touched []string
			ok := true
			for j := range a.Args {
				s, t := a.Args[j], b.Args[j]
				if !s.Var {
					if t.Var || t.Name != s.Name {
						ok = false
						break
					}
					continue
				}
				if prev, bound := assign[s.Name]; bound {
					if prev != t {
						ok = false
						break
					}
					continue
				}
				assign[s.Name] = t
				touched = append(touched, s.Name)
			}
			if ok && match(i+1) {
				return true
			}
			for _, v := range touched {
				delete(assign, v)
			}
		}
		return false
	}
	if !match(0) {
		return nil, false
	}
	out := Homomorphism{}
	for k, v := range assign {
		out[k] = v
	}
	return out, true
}

// Equivalent reports whether q1 and q2 are homomorphically equivalent, i.e.
// equivalent as queries (§2).
func Equivalent(q1, q2 Query) bool {
	_, a := FindHomomorphism(q1, q2)
	if !a {
		return false
	}
	_, b := FindHomomorphism(q2, q1)
	return b
}

// Apply maps an atom through the homomorphism.
func (h Homomorphism) Apply(a Atom) Atom {
	out := Atom{Rel: a.Rel, Args: make([]Term, len(a.Args))}
	for i, t := range a.Args {
		if t.Var {
			if img, ok := h[t.Name]; ok {
				out.Args[i] = img
				continue
			}
		}
		out.Args[i] = t
	}
	return out
}

// Core computes the core of q: a minimal (in atom count) equivalent
// subquery. It repeatedly looks for an endomorphism whose image uses fewer
// atoms and restricts q to the image.
func Core(q Query) Query {
	cur := q
	for {
		smaller, ok := shrinkOnce(cur)
		if !ok {
			return cur
		}
		cur = smaller
	}
}

// shrinkOnce looks for a proper retraction: an endomorphism of q whose atom
// image is a strict subset of q's atoms.
func shrinkOnce(q Query) (Query, bool) {
	n := len(q.Atoms)
	if n <= 1 {
		return q, false
	}
	// Try dropping each atom: q is equivalent to q - {atom} iff there is a
	// homomorphism from q into q - {atom} (the other direction is trivial).
	for drop := 0; drop < n; drop++ {
		rest := Query{Atoms: make([]Atom, 0, n-1)}
		for i, a := range q.Atoms {
			if i != drop {
				rest.Atoms = append(rest.Atoms, a)
			}
		}
		if _, ok := FindHomomorphism(q, rest); ok {
			return rest, true
		}
	}
	return q, false
}

// atomKey gives a canonical string for deduplicating atoms.
func atomKey(a Atom) string {
	k := a.Rel + "("
	for i, t := range a.Args {
		if i > 0 {
			k += ","
		}
		if t.Var {
			k += "?" + t.Name
		} else {
			k += "=" + t.Name
		}
	}
	return k + ")"
}

// Dedup removes duplicate atoms (identical relation and argument lists),
// preserving order of first occurrence.
func Dedup(q Query) Query {
	seen := map[string]bool{}
	out := Query{}
	for _, a := range q.Atoms {
		k := atomKey(a)
		if !seen[k] {
			seen[k] = true
			out.Atoms = append(out.Atoms, a)
		}
	}
	return out
}
