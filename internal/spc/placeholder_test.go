package spc

import (
	"testing"

	"bcq/internal/value"
)

func TestParsePlaceholders(t *testing.T) {
	q := MustParse(`select photo_id from in_album where album_id = ? and photo_id = 7`, socialCatalog())
	if len(q.Placeholders) != 1 || q.Placeholders[0] != (AttrRef{Atom: 0, Attr: "album_id"}) {
		t.Fatalf("placeholders = %v", q.Placeholders)
	}
	if q.NumSel() != 2 {
		t.Errorf("#-sel = %d (placeholders count as selection atoms)", q.NumSel())
	}
}

func TestPlaceholderStringRoundTrip(t *testing.T) {
	cat := socialCatalog()
	q := MustParse(`select t1.photo_id from in_album as t1 where t1.album_id = ?`, cat)
	q2, err := Parse(q.String(), cat)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", q.String(), err)
	}
	if len(q2.Placeholders) != 1 {
		t.Errorf("placeholders lost in round trip: %s", q2)
	}
}

func TestPlaceholderNotInXBNorXC(t *testing.T) {
	cat := socialCatalog()
	q := MustParse(`select t1.photo_id from in_album as t1 where t1.album_id = ?`, cat)
	c, err := NewClosure(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	id := c.MustClass(AttrRef{Atom: 0, Attr: "album_id"})
	if c.XB().Has(id) {
		t.Error("placeholder class in X_B")
	}
	if c.XC().Has(id) {
		t.Error("placeholder class in X_C")
	}
	if !c.Params().Has(id) {
		t.Error("placeholder not a parameter")
	}
	// It is a parameter of its atom.
	found := false
	for _, a := range atomParamNames(c, 0) {
		if a == "album_id" {
			found = true
		}
	}
	if !found {
		t.Error("placeholder missing from X^i_Q")
	}
}

func TestInstantiateConsumesPlaceholder(t *testing.T) {
	cat := socialCatalog()
	q := MustParse(`select t1.photo_id from in_album as t1 where t1.album_id = ?`, cat)
	inst := q.Instantiate(map[AttrRef]value.Value{
		{Atom: 0, Attr: "album_id"}: value.Int(9),
	})
	if len(inst.Placeholders) != 0 {
		t.Errorf("bound placeholder not consumed: %v", inst.Placeholders)
	}
	if len(inst.EqConsts) != 1 || inst.EqConsts[0].C != value.Int(9) {
		t.Errorf("constant not added: %v", inst.EqConsts)
	}
	// The original is untouched.
	if len(q.Placeholders) != 1 {
		t.Error("Instantiate mutated the receiver")
	}
	// Partial instantiation keeps the unbound slots.
	q2 := MustParse(`select t1.photo_id from in_album as t1, friends as t2
		where t1.album_id = ? and t2.user_id = ?`, cat)
	inst2 := q2.Instantiate(map[AttrRef]value.Value{
		{Atom: 0, Attr: "album_id"}: value.Int(1),
	})
	if len(inst2.Placeholders) != 1 || inst2.Placeholders[0].Attr != "user_id" {
		t.Errorf("partial instantiation placeholders = %v", inst2.Placeholders)
	}
}

func TestClosureWithPlaceholderOnJoinedClass(t *testing.T) {
	// A placeholder on an attribute that also participates in a join: the
	// class is shared; instantiating the slot pins the whole class.
	cat := socialCatalog()
	q := MustParse(`select t3.photo_id from friends as t2, tagging as t3
		where t2.user_id = ? and t3.taggee_id = t2.user_id`, cat)
	c, err := NewClosure(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(AttrRef{Atom: 0, Attr: "user_id"}, AttrRef{Atom: 1, Attr: "taggee_id"}) {
		t.Fatal("join not in closure")
	}
	inst := q.Instantiate(map[AttrRef]value.Value{{Atom: 0, Attr: "user_id"}: value.Str("u0")})
	c2, err := NewClosure(inst, cat)
	if err != nil {
		t.Fatal(err)
	}
	id := c2.MustClass(AttrRef{Atom: 1, Attr: "taggee_id"})
	if v, ok := c2.ConstOf(id); !ok || v != value.Str("u0") {
		t.Errorf("constant did not propagate through the class: %v %v", v, ok)
	}
}
