// Package schema defines relational catalogs and access schemas.
//
// An access schema A (paper, Section 2) is a set of access constraints
// X → (Y, N) over a relation schema: for every X-value there are at most N
// distinct corresponding Y-values, and an index on X retrieves them at a cost
// measured in N, independent of the database size. Access constraints
// generalize functional dependencies (X → (Y, 1) with an index) and keys
// (X → (R, 1)).
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Relation describes one relation schema: a name and an ordered attribute
// list. Attribute names are unique within a relation.
type Relation struct {
	name  string
	attrs []string
	pos   map[string]int
	// byName lists the attribute positions in attribute-name order.
	byName []int
}

// NewRelation builds a relation schema. It returns an error if the name or
// any attribute is empty, or if attributes repeat.
func NewRelation(name string, attrs ...string) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: relation with empty name")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("schema: relation %s has no attributes", name)
	}
	r := &Relation{name: name, attrs: append([]string(nil), attrs...), pos: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("schema: relation %s has an empty attribute name", name)
		}
		if _, dup := r.pos[a]; dup {
			return nil, fmt.Errorf("schema: relation %s repeats attribute %s", name, a)
		}
		r.pos[a] = i
	}
	r.byName = make([]int, len(attrs))
	for i := range r.byName {
		r.byName[i] = i
	}
	sort.Slice(r.byName, func(i, j int) bool { return attrs[r.byName[i]] < attrs[r.byName[j]] })
	return r, nil
}

// MustRelation is NewRelation that panics on error; for use in static
// catalog definitions and tests.
func MustRelation(name string, attrs ...string) *Relation {
	r, err := NewRelation(name, attrs...)
	if err != nil {
		panic(err)
	}
	return r
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Attrs returns the attribute list in declaration order. Callers must not
// mutate the returned slice.
func (r *Relation) Attrs() []string { return r.attrs }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.attrs) }

// Has reports whether the relation has an attribute with the given name.
func (r *Relation) Has(attr string) bool {
	_, ok := r.pos[attr]
	return ok
}

// Pos returns the position of the attribute, or -1 if absent.
func (r *Relation) Pos(attr string) int {
	p, ok := r.pos[attr]
	if !ok {
		return -1
	}
	return p
}

// NameOrder returns the attribute positions sorted by attribute name: the
// order a set of positions lists its attributes in wherever that order
// shows, such as a plan's row sources. Callers must not mutate the
// returned slice.
func (r *Relation) NameOrder() []int { return r.byName }

// Positions maps a list of attribute names to their positions. It returns an
// error naming the first unknown attribute.
func (r *Relation) Positions(attrs []string) ([]int, error) {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		p, ok := r.pos[a]
		if !ok {
			return nil, fmt.Errorf("schema: relation %s has no attribute %s", r.name, a)
		}
		out[i] = p
	}
	return out, nil
}

// String renders the schema as "name(a1, a2, ...)".
func (r *Relation) String() string {
	return r.name + "(" + strings.Join(r.attrs, ", ") + ")"
}

// Catalog is a relational schema R = (R1, ..., Rl): a set of relation
// schemas with unique names.
type Catalog struct {
	rels   []*Relation
	byName map[string]*Relation
	// gen counts the relations ever added: an access schema compiled
	// against the catalog (AccessSchema.Compile) is rebuilt once it moves.
	gen uint64
}

// NewCatalog builds a catalog from relation schemas, rejecting duplicates.
func NewCatalog(rels ...*Relation) (*Catalog, error) {
	c := &Catalog{byName: make(map[string]*Relation, len(rels))}
	for _, r := range rels {
		if err := c.Add(r); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// MustCatalog is NewCatalog that panics on error.
func MustCatalog(rels ...*Relation) *Catalog {
	c, err := NewCatalog(rels...)
	if err != nil {
		panic(err)
	}
	return c
}

// Add inserts a relation schema, rejecting duplicate names.
func (c *Catalog) Add(r *Relation) error {
	if _, dup := c.byName[r.name]; dup {
		return fmt.Errorf("schema: duplicate relation %s", r.name)
	}
	c.rels = append(c.rels, r)
	c.byName[r.name] = r
	c.gen++
	return nil
}

// Relation looks a relation schema up by name.
func (c *Catalog) Relation(name string) (*Relation, bool) {
	r, ok := c.byName[name]
	return r, ok
}

// Relations returns all relation schemas in insertion order. Callers must
// not mutate the returned slice.
func (c *Catalog) Relations() []*Relation { return c.rels }

// NumRelations returns the number of relations in the catalog.
func (c *Catalog) NumRelations() int { return len(c.rels) }

// NumAttrs returns the total attribute count across all relations.
func (c *Catalog) NumAttrs() int {
	n := 0
	for _, r := range c.rels {
		n += r.Arity()
	}
	return n
}

// SortedNames returns relation names in lexicographic order; used for
// deterministic rendering.
func (c *Catalog) SortedNames() []string {
	names := make([]string, 0, len(c.rels))
	for _, r := range c.rels {
		names = append(names, r.name)
	}
	sort.Strings(names)
	return names
}

// String renders every relation schema, one per line.
func (c *Catalog) String() string {
	var b strings.Builder
	for i, r := range c.rels {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(r.String())
	}
	return b.String()
}
