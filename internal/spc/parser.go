package spc

import (
	"fmt"
	"strings"

	"bcq/internal/schema"
	"bcq/internal/value"
)

// Parse parses the SQL-ish surface syntax for SPC queries and validates the
// result against the catalog:
//
//	[query NAME:]
//	select alias.attr [as name], ... | select exists
//	from rel [as alias], ...
//	[where ref = ref and ref = literal and ...]
//
// Only equality predicates joined by "and" are allowed — exactly the SPC
// fragment. References may be written "alias.attr" or, when unambiguous
// across the from-list, as a bare "attr". Literals are integers,
// single-quoted strings, or null (rejected: x = null never holds).
// Keywords are case-insensitive; identifiers are case-sensitive.
func Parse(src string, cat *schema.Catalog) (*Query, error) {
	p := &parser{lex: lexer{src: src}, cat: cat}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if err := q.Validate(cat); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse that panics on error, for tests and static examples.
func MustParse(src string, cat *schema.Catalog) *Query {
	q, err := Parse(src, cat)
	if err != nil {
		panic(err)
	}
	return q
}

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokDot
	tokComma
	tokEq
	tokColon
	tokQuestion
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
scan:
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '.':
		l.pos++
		return token{kind: tokDot, text: ".", pos: start}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case c == '=':
		l.pos++
		return token{kind: tokEq, text: "=", pos: start}, nil
	case c == ':':
		l.pos++
		return token{kind: tokColon, text: ":", pos: start}, nil
	case c == '?':
		l.pos++
		return token{kind: tokQuestion, text: "?", pos: start}, nil
	case c == '\'':
		l.pos++
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, fmt.Errorf("spc: unterminated string literal at offset %d", start)
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					b.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			b.WriteByte(ch)
			l.pos++
		}
		return token{kind: tokString, text: b.String(), pos: start}, nil
	case c == '-' || (c >= '0' && c <= '9'):
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
		if l.pos == start+1 && c == '-' {
			return token{}, fmt.Errorf("spc: stray '-' at offset %d", start)
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
	case isIdentStart(c):
		l.pos++
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	default:
		return token{}, fmt.Errorf("spc: unexpected character %q at offset %d", string(c), start)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

type parser struct {
	lex    lexer
	cat    *schema.Catalog
	tok    token
	peeked bool
}

func (p *parser) next() (token, error) {
	if p.peeked {
		p.peeked = false
		return p.tok, nil
	}
	return p.lex.next()
}

func (p *parser) peek() (token, error) {
	if !p.peeked {
		t, err := p.lex.next()
		if err != nil {
			return token{}, err
		}
		p.tok = t
		p.peeked = true
	}
	return p.tok, nil
}

func (p *parser) expectKeyword(kw string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("spc: expected %q, got %s", kw, t)
	}
	return nil
}

func (p *parser) atKeyword(kw string) (bool, error) {
	t, err := p.peek()
	if err != nil {
		return false, err
	}
	return t.kind == tokIdent && strings.EqualFold(t.text, kw), nil
}

// atExists reports whether the projection list is the Boolean marker
// "exists": the keyword not followed by '.', which makes it an alias, as
// in "select exists.user_id from friends as exists".
func (p *parser) atExists() (bool, error) {
	if ok, err := p.atKeyword("exists"); !ok || err != nil {
		return ok, err
	}
	after := p.lex
	t, err := after.next()
	return err != nil || t.kind != tokDot, nil
}

// rawRef is an attribute reference before alias resolution.
type rawRef struct {
	alias string // empty for bare references
	attr  string
	pos   int
}

// rawCond is one equality of the where-clause before alias resolution:
// l = r, l = ? or l = c.
type rawCond struct {
	l      rawRef
	isRef  bool
	isSlot bool
	r      rawRef
	c      value.Value
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}

	if isQuery, err := p.atKeyword("query"); err != nil {
		return nil, err
	} else if isQuery {
		if _, err := p.next(); err != nil {
			return nil, err
		}
		t, err := p.next()
		if err != nil {
			return nil, err
		}
		if t.kind != tokIdent {
			return nil, fmt.Errorf("spc: expected query name, got %s", t)
		}
		q.Name = t.text
		t, err = p.next()
		if err != nil {
			return nil, err
		}
		if t.kind != tokColon {
			return nil, fmt.Errorf("spc: expected ':' after query name, got %s", t)
		}
	}

	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}

	// What the clauses hold is gathered in arrays on the stack (a longer
	// query spills to the heap) and the query's own slices are made once,
	// at their final sizes, when every clause has been read.
	type rawCol struct {
		ref rawRef
		as  string
	}
	var (
		outBuf  [8]rawCol
		atomBuf [8]Atom
		condBuf [16]rawCond
	)

	// Projection list, or "exists" for Boolean queries.
	rawOut := outBuf[:0]
	if isExists, err := p.atExists(); err != nil {
		return nil, err
	} else if isExists {
		if _, err := p.next(); err != nil {
			return nil, err
		}
	} else {
		for {
			ref, err := p.parseRef()
			if err != nil {
				return nil, err
			}
			as := ""
			if isAs, err := p.atKeyword("as"); err != nil {
				return nil, err
			} else if isAs {
				if _, err := p.next(); err != nil {
					return nil, err
				}
				t, err := p.next()
				if err != nil {
					return nil, err
				}
				if t.kind != tokIdent {
					return nil, fmt.Errorf("spc: expected output name after 'as', got %s", t)
				}
				as = t.text
			}
			rawOut = append(rawOut, rawCol{ref, as})
			t, err := p.peek()
			if err != nil {
				return nil, err
			}
			if t.kind != tokComma {
				break
			}
			if _, err := p.next(); err != nil {
				return nil, err
			}
		}
	}

	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	atoms := atomBuf[:0]
	for {
		t, err := p.next()
		if err != nil {
			return nil, err
		}
		if t.kind != tokIdent {
			return nil, fmt.Errorf("spc: expected relation name, got %s", t)
		}
		atom := Atom{Rel: t.text}
		if isAs, err := p.atKeyword("as"); err != nil {
			return nil, err
		} else if isAs {
			if _, err := p.next(); err != nil {
				return nil, err
			}
			t, err := p.next()
			if err != nil {
				return nil, err
			}
			if t.kind != tokIdent {
				return nil, fmt.Errorf("spc: expected alias after 'as', got %s", t)
			}
			atom.Alias = t.text
		}
		atoms = append(atoms, atom)
		t2, err := p.peek()
		if err != nil {
			return nil, err
		}
		if t2.kind != tokComma {
			break
		}
		if _, err := p.next(); err != nil {
			return nil, err
		}
	}

	q.Atoms = append(make([]Atom, 0, len(atoms)), atoms...)

	// Optional where-clause: equalities joined by "and".
	rawConds := condBuf[:0]
	nRef, nSlot := 0, 0
	if isWhere, err := p.atKeyword("where"); err != nil {
		return nil, err
	} else if isWhere {
		if _, err := p.next(); err != nil {
			return nil, err
		}
		for {
			l, err := p.parseRef()
			if err != nil {
				return nil, err
			}
			t, err := p.next()
			if err != nil {
				return nil, err
			}
			if t.kind != tokEq {
				return nil, fmt.Errorf("spc: expected '=', got %s (only equality predicates are SPC)", t)
			}
			t, err = p.peek()
			if err != nil {
				return nil, err
			}
			switch t.kind {
			case tokQuestion:
				if _, err := p.next(); err != nil {
					return nil, err
				}
				rawConds = append(rawConds, rawCond{l: l, isSlot: true})
				nSlot++
			case tokNumber:
				if _, err := p.next(); err != nil {
					return nil, err
				}
				v, err := value.Parse(t.text)
				if err != nil {
					return nil, err
				}
				rawConds = append(rawConds, rawCond{l: l, c: v})
			case tokString:
				if _, err := p.next(); err != nil {
					return nil, err
				}
				rawConds = append(rawConds, rawCond{l: l, c: value.Str(t.text)})
			case tokIdent:
				if strings.EqualFold(t.text, "null") {
					return nil, fmt.Errorf("spc: 'x = null' never holds; SPC conditions use non-null constants")
				}
				r, err := p.parseRef()
				if err != nil {
					return nil, err
				}
				rawConds = append(rawConds, rawCond{l: l, isRef: true, r: r})
				nRef++
			default:
				return nil, fmt.Errorf("spc: expected reference or literal after '=', got %s", t)
			}
			if isAnd, err := p.atKeyword("and"); err != nil {
				return nil, err
			} else if isAnd {
				if _, err := p.next(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}

	t, err := p.next()
	if err != nil {
		return nil, err
	}
	if t.kind != tokEOF {
		return nil, fmt.Errorf("spc: trailing input starting at %s", t)
	}

	// Resolve references now that the from-list is known.
	resolve := func(r rawRef) (AttrRef, error) { return p.resolveRef(q, r) }
	if len(rawOut) > 0 {
		q.Output = make([]OutputCol, 0, len(rawOut))
	}
	if nRef > 0 {
		q.EqAttrs = make([]EqAttr, 0, nRef)
	}
	if nSlot > 0 {
		q.Placeholders = make([]AttrRef, 0, nSlot)
	}
	if n := len(rawConds) - nRef - nSlot; n > 0 {
		q.EqConsts = make([]EqConst, 0, n)
	}
	for _, o := range rawOut {
		ref, err := resolve(o.ref)
		if err != nil {
			return nil, err
		}
		q.Output = append(q.Output, OutputCol{Ref: ref, As: o.as})
	}
	for _, c := range rawConds {
		l, err := resolve(c.l)
		if err != nil {
			return nil, err
		}
		switch {
		case c.isRef:
			r, err := resolve(c.r)
			if err != nil {
				return nil, err
			}
			q.EqAttrs = append(q.EqAttrs, EqAttr{L: l, R: r})
		case c.isSlot:
			q.Placeholders = append(q.Placeholders, l)
		default:
			q.EqConsts = append(q.EqConsts, EqConst{A: l, C: c.c})
		}
	}
	return q, nil
}

// parseRef parses "ident" or "ident.ident".
func (p *parser) parseRef() (rawRef, error) {
	t, err := p.next()
	if err != nil {
		return rawRef{}, err
	}
	if t.kind != tokIdent {
		return rawRef{}, fmt.Errorf("spc: expected attribute reference, got %s", t)
	}
	dot, err := p.peek()
	if err != nil {
		return rawRef{}, err
	}
	if dot.kind != tokDot {
		return rawRef{attr: t.text, pos: t.pos}, nil
	}
	if _, err := p.next(); err != nil {
		return rawRef{}, err
	}
	t2, err := p.next()
	if err != nil {
		return rawRef{}, err
	}
	if t2.kind != tokIdent {
		return rawRef{}, fmt.Errorf("spc: expected attribute after '.', got %s", t2)
	}
	return rawRef{alias: t.text, attr: t2.text, pos: t.pos}, nil
}

// resolveRef binds a raw reference to an atom. Qualified references resolve
// by alias (or relation name when no alias was given); bare references must
// match exactly one atom's relation.
func (p *parser) resolveRef(q *Query, r rawRef) (AttrRef, error) {
	if r.alias != "" {
		for i, at := range q.Atoms {
			name := at.Alias
			if name == "" {
				name = at.Rel
			}
			if name == r.alias {
				return AttrRef{Atom: i, Attr: r.attr}, nil
			}
		}
		return AttrRef{}, fmt.Errorf("spc: unknown alias %q in reference %s.%s", r.alias, r.alias, r.attr)
	}
	found := -1
	for i, at := range q.Atoms {
		rel, ok := p.cat.Relation(at.Rel)
		if !ok {
			return AttrRef{}, fmt.Errorf("spc: unknown relation %q", at.Rel)
		}
		if rel.Has(r.attr) {
			if found >= 0 {
				return AttrRef{}, fmt.Errorf("spc: ambiguous attribute %q (atoms %d and %d); qualify it", r.attr, found, i)
			}
			found = i
		}
	}
	if found < 0 {
		return AttrRef{}, fmt.Errorf("spc: attribute %q not found in any from-list relation", r.attr)
	}
	return AttrRef{Atom: found, Attr: r.attr}, nil
}
