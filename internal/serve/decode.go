package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"bcq/internal/live"
	"bcq/internal/value"
)

// Request decoding (DESIGN §8). A body is read whole into a pooled
// buffer and scanned once, straight into the typed request: no boxed
// values, no reflection, no raw sub-documents parsed again later. What
// it accepts and produces is what encoding/json's strict Decoder gives
// for the request structs — the test oracle, held to it by
// FuzzDecodeQuery and FuzzDecodeIngest — with two rules of its own: a
// body holds exactly one JSON value plus whitespace, and a body longer
// than maxBodyBytes is refused whole.

// queryRequest is the POST /query body.
type queryRequest struct {
	// Query is the SPC query text; "attr = ?" placeholders bind Args
	// positionally.
	Query string
	// Args are the placeholder arguments: JSON null, integer or string.
	Args []value.Value
	// argErr is the first argument with no database value (fractional,
	// or not a scalar). It is reported after the request-shape checks,
	// as "argument i: …".
	argErr error
	// TimeoutMS overrides the server's default per-request deadline.
	TimeoutMS int64
	// Limit > 0 switches the request to the streamed, paged path: at most
	// Limit answer tuples are returned, the response streams as they are
	// produced, and — when more answers remain — next_cursor carries an
	// opaque token that continues the scan on the same pinned snapshot.
	// Paged responses bypass the result cache.
	Limit int64
	// Cursor continues a previous paged request. Tokens are single-use:
	// each page invalidates its token and returns a fresh one. When set,
	// Query and Args must be absent (the cursor carries the whole scan).
	Cursor string
	// Debug asks for the diagnostics block in the response: the executed
	// plan (estimates and actuals) and, with tracing active, the span
	// tree. Debug requests always run traced.
	Debug bool
}

// The JSON member names of each body, in the order a member is matched.
var (
	queryFields   = []string{"query", "args", "timeout_ms", "limit", "cursor", "debug"}
	ingestFields  = []string{"ops"}
	opFields      = []string{"op", "rel", "tuple"}
	prepareFields = []string{"query"}
)

// maxBodyBytes bounds a request body: large enough for bulk ingest
// batches, small enough that a hostile POST cannot balloon memory.
const maxBodyBytes = 8 << 20

// maxPooledBody is the largest buffer returned to the pool; a bulk
// ingest body's buffer is left to the collector instead of staying live.
const maxPooledBody = 64 << 10

// maxDepth is encoding/json's nesting limit, the body's object counted.
const maxDepth = 10000

// bodyDecoder holds one request body and the scratch its scan reuses.
type bodyDecoder struct {
	buf   []byte
	pos   int
	depth int
	str   []byte        // an unescaped string
	vals  []value.Value // the elements of the array being read
	slots []opSlot      // /ingest: the ops as decoded so far
	names []string      // /ingest: op and relation names already seen
	// stripe is the request counters' stripe (counter) a request read
	// into this decoder adds to. The pool keeps a decoder per processor,
	// so the stripe stays with one.
	stripe uint32
}

// opSlot is one op of an /ingest body while it is decoded. A repeated
// "ops" member decodes into the slots the previous one left, so a member
// an op object omits keeps its earlier value — encoding/json's reuse of
// the slice's elements.
type opSlot struct {
	op, rel string
	tuple   value.Tuple
	badAttr int   // the first attribute with no database value,
	attrErr error // and why
}

// decoders pools body decoders; each new one takes the next counter
// stripe in turn.
var (
	decoders = sync.Pool{New: func() any {
		return &bodyDecoder{buf: make([]byte, 0, 1024), stripe: nextStripe.Add(1)}
	}}
	nextStripe atomic.Uint32
)

// readBody reads r's body into a pooled decoder (read). The caller
// releases it.
func readBody(w http.ResponseWriter, r *http.Request) (*bodyDecoder, error) {
	d := decoders.Get().(*bodyDecoder)
	if err := d.read(w, r); err != nil {
		return nil, err
	}
	return d, nil
}

// read reads r's body, at most maxBodyBytes of it, into d, which goes
// back to the pool if that fails. The body stays in d.buf, as it arrived,
// until d is released: /query probes the result cache with those bytes
// before decoding them, and an untraced hit writes its response over
// them.
func (d *bodyDecoder) read(w http.ResponseWriter, r *http.Request) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	buf := d.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			d.buf = buf
			d.release()
			return fmt.Errorf("invalid request body: %w", err)
		}
	}
	d.reset(buf)
	return nil
}

// decodeRequest reads r's body and decodes it with decode.
func decodeRequest[T any](w http.ResponseWriter, r *http.Request, decode func(*bodyDecoder) (T, error)) (T, error) {
	d, err := readBody(w, r)
	if err != nil {
		var zero T
		return zero, err
	}
	defer d.release()
	return decode(d)
}

// reset makes body the one to decode, dropping what the last one left.
func (d *bodyDecoder) reset(body []byte) {
	d.buf, d.pos, d.depth = body, 0, 0
	d.dropSlots()
	clear(d.names)
	d.names = d.names[:0]
}

// release returns d to the pool unless a large body grew it.
func (d *bodyDecoder) release() {
	if cap(d.buf) > maxPooledBody || cap(d.str) > maxPooledBody || cap(d.vals) > maxPooledBody/32 || cap(d.slots) > maxPooledBody/64 {
		return
	}
	d.reset(d.buf[:0])
	clear(d.vals[:cap(d.vals)])
	decoders.Put(d)
}

// query decodes a /query body.
func (d *bodyDecoder) query() (queryRequest, error) {
	var req queryRequest
	err := d.body(queryFields, func(field int) error {
		switch field {
		case 0:
			return d.stringMember(&req.Query)
		case 1:
			args, bad, verr, err := d.values("args")
			req.Args, req.argErr = args, nil
			if verr != nil {
				req.argErr = fmt.Errorf("argument %d: %w", bad, verr)
			}
			return err
		case 2:
			return d.intMember(&req.TimeoutMS)
		case 3:
			return d.intMember(&req.Limit)
		case 4:
			return d.stringMember(&req.Cursor)
		default:
			return d.boolMember(&req.Debug)
		}
	})
	return req, err
}

// prepare decodes a /prepare body: its query text.
func (d *bodyDecoder) prepare() (string, error) {
	var q string
	err := d.body(prepareFields, func(int) error { return d.stringMember(&q) })
	return q, err
}

// ingest decodes an /ingest body into its write batch. The value errors
// are checked op by op once the body has parsed: an op's attributes
// first, then its kind.
func (d *bodyDecoder) ingest() ([]live.Op, error) {
	n := 0
	err := d.body(ingestFields, func(int) error {
		var err error
		n, err = d.ops()
		return err
	})
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, errors.New("empty ops list")
	}
	out := make([]live.Op, n)
	for i, sl := range d.slots[:n] {
		if sl.attrErr != nil {
			return nil, fmt.Errorf("op %d, attribute %d: %w", i, sl.badAttr, sl.attrErr)
		}
		switch sl.op {
		case "insert":
			out[i] = live.Insert(sl.rel, sl.tuple)
		case "delete":
			out[i] = live.Delete(sl.rel, sl.tuple)
		default:
			return nil, fmt.Errorf("op %d: unknown op %q (insert or delete)", i, sl.op)
		}
	}
	return out, nil
}

// ops reads the "ops" member into d.slots and returns its length. null
// and [] drop every slot; an array writes slot i with its i-th element,
// growing d.slots with zero slots as needed.
func (d *bodyDecoder) ops() (int, error) {
	if d.null() {
		d.dropSlots()
		return 0, nil
	}
	if d.peek() != '[' {
		return 0, d.typeError("ops", "array")
	}
	n := 0
	err := d.array(func() error {
		if n == len(d.slots) {
			d.slots = append(d.slots, opSlot{})
		}
		sl := &d.slots[n]
		n++
		if d.null() {
			return nil
		}
		if d.peek() != '{' {
			return d.typeError("ops element", "object")
		}
		return d.object(opFields, func(field int) error {
			switch field {
			case 0:
				return d.nameMember(&sl.op)
			case 1:
				return d.nameMember(&sl.rel)
			default:
				var err error
				sl.tuple, sl.badAttr, sl.attrErr, err = d.values("tuple")
				return err
			}
		})
	})
	if n == 0 {
		d.dropSlots()
	}
	return n, err
}

func (d *bodyDecoder) dropSlots() {
	clear(d.slots)
	d.slots = d.slots[:0]
}

// values reads an "args" or "tuple" member: nil for null, else one value
// per array element, in a slice of its own. An element with no database
// value reads as null; the first one's index and reason are returned
// beside the values.
func (d *bodyDecoder) values(what string) (vals []value.Value, bad int, verr, err error) {
	if d.null() {
		return nil, 0, nil, nil
	}
	if d.peek() != '[' {
		return nil, 0, nil, d.typeError(what, "array")
	}
	d.vals = d.vals[:0]
	err = d.array(func() error {
		v, e, err := d.scalar()
		if e != nil && verr == nil {
			bad, verr = len(d.vals), e
		}
		d.vals = append(d.vals, v)
		return err
	})
	return append([]value.Value{}, d.vals...), bad, verr, err
}

// scalar reads one argument or attribute: null, an integer or a string.
// Any other well-formed JSON value is read and returned as verr, in the
// words of the encoding/json decoding it replaces; err is a malformed
// body.
func (d *bodyDecoder) scalar() (v value.Value, verr, err error) {
	start := d.pos
	switch c := d.peek(); {
	case c == '"':
		s, err := d.string()
		return value.Str(string(s)), nil, err
	case c == '-' || '0' <= c && c <= '9':
		lit, err := d.number()
		if err != nil {
			return value.Null, nil, err
		}
		if i, ok := parseInt(lit); ok {
			return value.Int(i), nil, nil
		}
		return value.Null, fmt.Errorf("value %s is not an integer (fractional values are unsupported)", lit), nil
	case c == 'n':
		return value.Null, nil, d.literal("null")
	}
	if err := d.skip(); err != nil {
		return value.Null, nil, err
	}
	typ := "bool"
	switch d.buf[start] {
	case '[':
		typ = "[]interface {}"
	case '{':
		typ = "map[string]interface {}"
	}
	return value.Null, fmt.Errorf("value %s has unsupported type %s (null, integer or string expected)", d.buf[start:d.pos], typ), nil
}

// stringMember reads a string member; null leaves it as it was.
func (d *bodyDecoder) stringMember(dst *string) error {
	if d.null() {
		return nil
	}
	if d.peek() != '"' {
		return d.typeError("member", "string")
	}
	s, err := d.string()
	*dst = string(s)
	return err
}

// nameMember is stringMember for an op kind or a relation name: one
// string per distinct name in a batch, not one per op.
func (d *bodyDecoder) nameMember(dst *string) error {
	if d.null() {
		return nil
	}
	if d.peek() != '"' {
		return d.typeError("member", "string")
	}
	s, err := d.string()
	if err != nil {
		return err
	}
	for _, name := range d.names {
		if name == string(s) {
			*dst = name
			return nil
		}
	}
	*dst = string(s)
	if len(d.names) < 16 {
		d.names = append(d.names, *dst)
	}
	return nil
}

// intMember reads an int64 member: an integer literal in range; null
// leaves it as it was.
func (d *bodyDecoder) intMember(dst *int64) error {
	if d.null() {
		return nil
	}
	c := d.peek()
	if c != '-' && (c < '0' || c > '9') {
		return d.typeError("member", "integer")
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	i, ok := parseInt(lit)
	if !ok {
		return fmt.Errorf("invalid request body: number %s is not an int64", lit)
	}
	*dst = i
	return nil
}

// boolMember reads a boolean member; null leaves it as it was.
func (d *bodyDecoder) boolMember(dst *bool) error {
	switch {
	case d.null():
		return nil
	case d.peek() == 't':
		*dst = true
		return d.literal("true")
	case d.peek() == 'f':
		*dst = false
		return d.literal("false")
	}
	return d.typeError("debug", "boolean")
}

// body reads the whole buffer as one object of the given members,
// calling member with the index of each one met (repeats included: the
// last one wins), and then nothing but whitespace. A null body is an
// object with no members.
func (d *bodyDecoder) body(fields []string, member func(field int) error) error {
	d.ws()
	var err error
	switch {
	case d.pos == len(d.buf):
		return d.syntaxError("")
	case d.null():
	case d.peek() == '{':
		err = d.object(fields, member)
	default:
		err = d.typeError("request body", "object")
	}
	if err != nil {
		return err
	}
	d.ws()
	if d.pos != len(d.buf) {
		return d.syntaxError("after the request object")
	}
	return nil
}

// object reads the object at d.pos. Each key is matched to fields as
// encoding/json matches struct fields — exactly, else under Unicode
// simple case folding — and member reads its value; a key matching no
// field is an error.
func (d *bodyDecoder) object(fields []string, member func(field int) error) error {
	return d.members(func(key []byte) error {
		field := fieldIndex(key, fields)
		if field < 0 {
			return fmt.Errorf("invalid request body: unknown field %q", key)
		}
		return member(field)
	})
}

// members reads the object at d.pos, calling member at each value with
// its key, which is valid until the next string is read.
func (d *bodyDecoder) members(member func(key []byte) error) error {
	return d.container('{', '}', func() error {
		if d.peek() != '"' {
			return d.syntaxError("looking for an object key")
		}
		key, err := d.string()
		if err != nil {
			return err
		}
		d.ws()
		if d.peek() != ':' {
			return d.syntaxError("after an object key")
		}
		d.pos++
		d.ws()
		return member(key)
	})
}

// array reads the array at d.pos, calling elem at each element.
func (d *bodyDecoder) array(elem func() error) error {
	return d.container('[', ']', elem)
}

// container reads the delimited, comma-separated list at d.pos.
func (d *bodyDecoder) container(open, close byte, elem func() error) error {
	if d.depth++; d.depth > maxDepth {
		return errors.New("invalid request body: exceeded max depth")
	}
	d.pos++
	d.ws()
	if d.peek() == close {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.pos++
			d.ws()
		case close:
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntaxError(fmt.Sprintf("after %c element", open))
		}
	}
}

// skip reads and discards one JSON value of any type.
func (d *bodyDecoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.members(func([]byte) error { return d.skip() })
	case c == '[':
		return d.array(d.skip)
	case c == '"':
		_, err := d.string()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.syntaxError("looking for a value")
}

// string reads the string literal at d.pos and returns its value. An
// escape-free ASCII string is returned in place; anything else is
// unescaped into d.str, invalid UTF-8 and unpaired surrogates becoming
// U+FFFD. Either is valid only until the next call.
func (d *bodyDecoder) string() ([]byte, error) {
	start := d.pos + 1
	for i := start; i < len(d.buf); i++ {
		switch c := d.buf[i]; {
		case c == '"':
			d.pos = i + 1
			return d.buf[start:i], nil
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return d.unescape(start, i)
		}
	}
	d.pos = len(d.buf)
	return nil, d.syntaxError("")
}

// unescape finishes reading a string from d.buf[i], d.buf[start:i]
// being plain ASCII.
func (d *bodyDecoder) unescape(start, i int) ([]byte, error) {
	out := append(d.str[:0], d.buf[start:i]...)
	defer func() { d.str = out }()
	for i < len(d.buf) {
		c := d.buf[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return out, nil
		case c < 0x20:
			d.pos = i
			return nil, d.syntaxError("in string literal")
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(d.buf[i:])
			if r == utf8.RuneError && n == 1 {
				out = utf8.AppendRune(out, utf8.RuneError)
			} else {
				out = append(out, d.buf[i:i+n]...)
			}
			i += n
		case c != '\\':
			out = append(out, c)
			i++
		case i+1 == len(d.buf):
			i++
		default:
			esc := d.buf[i+1]
			switch esc {
			case '"', '\\', '/':
				out = append(out, esc)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(d.buf[i+2:])
				if r < 0 {
					d.pos = i + 2
					return nil, d.syntaxError("in \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A pair is consumed whole; anything else leaves the
					// next escape to be read on its own.
					if len(d.buf) > i+1 && d.buf[i] == '\\' && d.buf[i+1] == 'u' {
						if dec := utf16.DecodeRune(r, hex4(d.buf[i+2:])); dec != unicode.ReplacementChar {
							out = utf8.AppendRune(out, dec)
							i += 6
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.pos = i + 1
				return nil, d.syntaxError("in string escape code")
			}
			i += 2
		}
	}
	d.pos = len(d.buf)
	return nil, d.syntaxError("")
}

// hex4 reads four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number reads the number literal at d.pos in JSON's grammar.
func (d *bodyDecoder) number() ([]byte, error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, d.syntaxError("in numeric literal")
	}
	if d.peek() == '.' {
		d.pos++
		if !d.digits() {
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			return nil, d.syntaxError("in exponent of numeric literal")
		}
	}
	return d.buf[start:d.pos], nil
}

// digits skips a run of decimal digits and reports whether there was one.
func (d *bodyDecoder) digits() bool {
	start := d.pos
	for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// parseInt is strconv.ParseInt(lit, 10, 64) for a JSON number literal:
// false for a fraction, an exponent or a value out of range.
func parseInt(lit []byte) (int64, bool) {
	digits, neg := lit, lit[0] == '-'
	if neg {
		digits = lit[1:]
	}
	var u uint64
	for _, c := range digits {
		if c < '0' || c > '9' || u > (1<<63)/10 {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	switch {
	case neg && u <= 1<<63:
		return -int64(u), true
	case !neg && u < 1<<63:
		return int64(u), true
	}
	return 0, false
}

// literal reads the keyword lit at d.pos.
func (d *bodyDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.peek() != lit[i] {
			return d.syntaxError("in literal " + lit)
		}
		d.pos++
	}
	return nil
}

// null reads a null literal if one is at d.pos.
func (d *bodyDecoder) null() bool {
	if len(d.buf)-d.pos >= 4 && string(d.buf[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

func (d *bodyDecoder) ws() {
	for ; d.pos < len(d.buf); d.pos++ {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// peek returns the byte at d.pos, or 0 at the end of the body.
func (d *bodyDecoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

func (d *bodyDecoder) syntaxError(where string) error {
	if d.pos >= len(d.buf) {
		return errors.New("invalid request body: unexpected end of JSON input")
	}
	return fmt.Errorf("invalid request body: invalid character %q %s at offset %d", d.buf[d.pos], where, d.pos)
}

func (d *bodyDecoder) typeError(what, want string) error {
	return fmt.Errorf("invalid request body: %s at offset %d: %s expected", what, d.pos, want)
}

// fieldIndex returns the index of the field key names: an exact match
// first, then one under encoding/json's folding; -1 for none.
func fieldIndex(key []byte, fields []string) int {
	for i, f := range fields {
		if string(key) == f {
			return i
		}
	}
	for i, f := range fields {
		if foldEqual(key, f) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether key folds to the lower-case ASCII name the
// way encoding/json folds both: ASCII letters by case, any other rune to
// the smallest rune of its simple-folding orbit (so "ſ" matches "s").
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		r, n := rune(key[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(key[i:])
			r = foldRune(r)
		}
		i += n
		if j == len(name) || upperASCII(r) != upperASCII(rune(name[j])) {
			return false
		}
	}
	return j == len(name)
}

func upperASCII(r rune) rune {
	if 'a' <= r && r <= 'z' {
		return r - ('a' - 'A')
	}
	return r
}

// foldRune returns the smallest rune of r's simple-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}
