// Package canon reads and writes the canonical JSON of the result codec:
// the exact bytes encoding/json writes for a struct, without reflection.
//
// A wire type is described once, by a function that visits its fields in
// declaration order on a Codec:
//
//	func configFields(c *canon.Codec, cfg *Config) {
//		c.Begin()
//		c.I64("Duration", (*int64)(&cfg.Duration))
//		c.Str("Name", &cfg.Name)
//		c.End()
//	}
//
// Append walks it to write the value, Parse walks the same function to read
// it back, so a field cannot be written and forgotten by the reader. The
// writer follows encoding/json: no whitespace; floats in its ES6 form;
// strings HTML-escaped; null for nil pointers, slices and maps; int map keys
// sorted as decimal strings ("10" before "3"); NaN and ±Inf refused. The
// reader accepts exactly what the writer writes and nothing else — no
// whitespace, no other key order or spelling, no unknown or missing fields,
// no other spelling of a number or string — so every accepted input
// re-encodes to itself.
package canon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Codec is one walk over a value's canonical JSON: appending it to a
// buffer, or parsing it from one. The first error stops the walk; every
// later call is a no-op.
type Codec struct {
	decoding bool
	buf      []byte // the output so far, or the whole input
	pos      int    // read offset into buf when decoding
	first    bool   // the next member or element is the first of its object or array
	err      error
}

// Append appends v's canonical JSON, as walk describes it, to dst. On
// error it returns dst unchanged.
func Append[T any](dst []byte, v *T, walk func(*Codec, *T)) ([]byte, error) {
	c := Codec{buf: dst}
	walk(&c, v)
	if c.err != nil {
		return dst, c.err
	}
	return c.buf, nil
}

// Parse fills v from data, which must hold exactly the canonical JSON walk
// describes, with nothing before or after it.
func Parse[T any](data []byte, v *T, walk func(*Codec, *T)) error {
	c := Codec{decoding: true, buf: data}
	walk(&c, v)
	if c.err == nil && c.pos != len(data) {
		c.failf("data after the value")
	}
	return c.err
}

// Decoding reports whether the walk parses rather than appends.
func (c *Codec) Decoding() bool { return c.decoding }

// Fail stops the walk with err, unless it has already failed.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *Codec) failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("canon: offset %d: %s", c.pos, fmt.Sprintf(format, args...))
	}
}

// Begin opens an object.
func (c *Codec) Begin() { c.delim('{') }

// End closes an object.
func (c *Codec) End() { c.delim('}') }

// Field writes or expects the key of a member whose value the caller walks
// next.
func (c *Codec) Field(name string) {
	if c.err != nil {
		return
	}
	if c.decoding {
		if !c.first && !c.eat(',') || !c.eatKey(name) {
			c.failf("want field %q", name)
		}
	} else {
		c.sep()
		c.buf = append(c.buf, '"')
		c.buf = append(c.buf, name...)
		c.buf = append(c.buf, '"', ':')
	}
	c.first = false
}

// optField is Field for an omitempty member: when encoding it writes the
// key only if present; when decoding it reports whether the member is next.
func (c *Codec) optField(name string, present bool) bool {
	if c.err != nil {
		return false
	}
	if !c.decoding {
		if present {
			c.Field(name)
		}
		return present
	}
	save := c.pos
	if !c.first && !c.eat(',') || !c.eatKey(name) {
		c.pos = save
		return false
	}
	c.first = false
	return true
}

// I64 walks an int64 member.
func (c *Codec) I64(name string, p *int64) {
	c.Field(name)
	c.integer(p, 64)
}

// Int walks an int member.
func (c *Codec) Int(name string, p *int) {
	c.Field(name)
	v := int64(*p)
	c.integer(&v, strconv.IntSize)
	*p = int(v)
}

// U64 walks a uint64 member.
func (c *Codec) U64(name string, p *uint64) {
	c.Field(name)
	c.unsigned(p)
}

// F64 walks a float64 member. NaN and ±Inf fail the encode.
func (c *Codec) F64(name string, p *float64) {
	c.Field(name)
	if c.err != nil {
		return
	}
	if c.decoding {
		c.number(p)
		return
	}
	if math.IsNaN(*p) || math.IsInf(*p, 0) {
		c.Fail(fmt.Errorf("canon: unsupported value %v in %q", *p, name))
		return
	}
	c.buf = appendFloat(c.buf, *p)
}

// Bool walks a bool member.
func (c *Codec) Bool(name string, p *bool) {
	c.Field(name)
	if c.err != nil {
		return
	}
	if !c.decoding {
		c.buf = strconv.AppendBool(c.buf, *p)
		return
	}
	switch {
	case c.eatLit("true"):
		*p = true
	case c.eatLit("false"):
		*p = false
	default:
		c.failf("want a bool")
	}
}

// Str walks a string member.
func (c *Codec) Str(name string, p *string) {
	c.Field(name)
	if c.err != nil {
		return
	}
	if c.decoding {
		c.quoted(p)
	} else {
		c.buf = appendString(c.buf, *p)
	}
}

// Sparse walks an omitempty member holding the non-zero entries of v as an
// object keyed by index: the form encoding/json gives a map[int]uint64 of
// them, keys sorted as decimal strings. Decoding fills a zeroed v in place,
// and refuses an index out of range, a zero entry, or an empty object.
func (c *Codec) Sparse(name string, v []uint64) {
	if c.decoding {
		c.parseSparse(name, v)
		return
	}
	// Indices of one digit count sort as strings the way they sort as
	// numbers, so each run [1, 10), [10, 100), ... (and [0, 1)) is in order
	// already; a merge of the runs' heads orders them all.
	var head, end [20]int
	runs, nonzero := 0, false
	for lo, hi := 0, 10; lo < len(v); lo, hi = hi, hi*10 {
		end[runs] = min(hi, len(v))
		head[runs] = nextNonZero(v, lo, end[runs])
		nonzero = nonzero || head[runs] < end[runs]
		runs++
	}
	if !c.optField(name, nonzero) {
		return
	}
	c.delim('{')
	for {
		r := -1
		for i := 0; i < runs; i++ {
			if head[i] < end[i] && (r < 0 || keyLess(head[i], head[r])) {
				r = i
			}
		}
		if r < 0 {
			break
		}
		c.sep()
		c.appendKey(head[r])
		c.unsigned(&v[head[r]])
		head[r] = nextNonZero(v, head[r]+1, end[r])
	}
	c.delim('}')
}

func (c *Codec) parseSparse(name string, v []uint64) {
	if !c.optField(name, false) {
		return
	}
	c.delim('{')
	prev, n := 0, 0
	for ; c.more('}'); n++ {
		i := c.key()
		if c.err == nil && (i < 0 || i >= len(v)) {
			c.failf("index %d out of range", i)
		}
		if c.err == nil && n > 0 && !keyLess(prev, i) {
			c.failf("key %d out of order", i)
		}
		if c.err != nil {
			return
		}
		c.unsigned(&v[i])
		if c.err == nil && v[i] == 0 {
			c.failf("zero entry at index %d", i)
		}
		prev = i
	}
	if n == 0 {
		c.failf("empty %q", name)
	}
	c.delim('}')
}

func nextNonZero(v []uint64, i, end int) int {
	for i < end && v[i] == 0 {
		i++
	}
	return i
}

// Ptr walks a member that is null for a nil pointer. Decoding allocates
// the value and parses straight into it.
func Ptr[T any](c *Codec, name string, p **T, walk func(*Codec, *T)) {
	c.Field(name)
	nullable(c, p, walk)
}

// OptPtr walks an omitempty pointer member: absent when nil, never null.
func OptPtr[T any](c *Codec, name string, p **T, walk func(*Codec, *T)) {
	if !c.optField(name, *p != nil) {
		return
	}
	if c.decoding {
		*p = new(T)
	}
	walk(c, *p)
}

func nullable[T any](c *Codec, p **T, walk func(*Codec, *T)) {
	if c.null(*p == nil) {
		if c.decoding {
			*p = nil
		}
		return
	}
	if c.decoding {
		*p = new(T)
	}
	walk(c, *p)
}

// Slice walks an array member that is null for a nil slice and [] for an
// empty one.
func Slice[T any](c *Codec, name string, s *[]T, walk func(*Codec, *T)) {
	c.Field(name)
	if c.null(*s == nil) {
		if c.decoding {
			*s = nil
		}
		return
	}
	c.delim('[')
	if c.decoding {
		v := []T{}
		for c.more(']') {
			var zero T
			v = append(v, zero)
			walk(c, &v[len(v)-1])
		}
		*s = v
	} else {
		for i := range *s {
			c.sep()
			walk(c, &(*s)[i])
		}
	}
	c.delim(']')
}

// IntMap walks a map member with int keys and pointer values: null for a
// nil map, keys sorted as decimal strings, each value null or walked.
func IntMap[V any](c *Codec, name string, m *map[int]*V, walk func(*Codec, *V)) {
	c.Field(name)
	if c.null(*m == nil) {
		if c.decoding {
			*m = nil
		}
		return
	}
	c.delim('{')
	if c.decoding {
		out := make(map[int]*V)
		prev := 0
		for n := 0; c.more('}'); n++ {
			k := c.key()
			if c.err == nil && n > 0 && !keyLess(prev, k) {
				c.failf("key %d out of order", k)
			}
			var v *V
			nullable(c, &v, walk)
			out[k], prev = v, k
		}
		*m = out
	} else {
		var stack [8]int
		keys := stack[:0]
		for k := range *m {
			keys = append(keys, k)
		}
		for i := 1; i < len(keys); i++ { // insertion sort: maps here hold a few keys
			for j := i; j > 0 && keyLess(keys[j], keys[j-1]); j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		for _, k := range keys {
			c.sep()
			c.appendKey(k)
			v := (*m)[k]
			nullable(c, &v, walk)
		}
	}
	c.delim('}')
}

// keyLess reports whether int key a sorts before b in encoding/json's map
// order, which compares the keys' decimal strings bytewise.
func keyLess(a, b int) bool {
	if a < 0 || b < 0 {
		var x, y [20]byte
		return string(strconv.AppendInt(x[:0], int64(a), 10)) < string(strconv.AppendInt(y[:0], int64(b), 10))
	}
	// Pad the shorter with zeros to the longer's digit count: the padded
	// values order as the strings do, and on a tie the shorter is a prefix.
	pa, pb := uint64(a), uint64(b)
	da, db := numDigits(pa), numDigits(pb)
	for i := da; i < db; i++ {
		pa *= 10
	}
	for i := db; i < da; i++ {
		pb *= 10
	}
	if pa != pb {
		return pa < pb
	}
	return da < db
}

func numDigits(u uint64) int {
	n := 1
	for p := uint64(10); u >= p && n < 19; p *= 10 {
		n++
	}
	return n
}

// sep writes the comma before every member or element but the first.
func (c *Codec) sep() {
	if !c.first {
		c.buf = append(c.buf, ',')
	}
	c.first = false
}

// delim writes or expects a bracket. After an opening one, the next
// member or element is the first of its object or array.
func (c *Codec) delim(b byte) {
	if c.err != nil {
		return
	}
	if !c.decoding {
		c.buf = append(c.buf, b)
	} else if !c.eat(b) {
		c.failf("want %q", b)
	}
	c.first = b == '{' || b == '['
}

// more reports, when decoding, whether another member or element follows
// before the closing byte, and consumes the comma before it.
func (c *Codec) more(closing byte) bool {
	if c.err != nil || c.peek() == closing {
		return false
	}
	if !c.first && !c.eat(',') {
		c.failf("want ',' or %q", closing)
		return false
	}
	c.first = false
	return true
}

// null writes null for a nil value, or consumes a null that is next, and
// reports whether the value was null. After an error it reports true, so
// the caller walks no further.
func (c *Codec) null(isNil bool) bool {
	if c.err != nil {
		return true
	}
	if !c.decoding {
		if isNil {
			c.buf = append(c.buf, "null"...)
		}
		return isNil
	}
	return c.eatLit("null")
}

// appendKey writes an int map key with its colon.
func (c *Codec) appendKey(k int) {
	c.buf = append(c.buf, '"')
	c.buf = strconv.AppendInt(c.buf, int64(k), 10)
	c.buf = append(c.buf, '"', ':')
}

// key parses an int map key with its colon.
func (c *Codec) key() int {
	var k int64
	if !c.eat('"') {
		c.failf("want a key")
		return 0
	}
	c.integer(&k, strconv.IntSize)
	if c.err == nil && !(c.eat('"') && c.eat(':')) {
		c.failf("want a key")
	}
	return int(k)
}

func (c *Codec) peek() byte {
	if c.pos < len(c.buf) {
		return c.buf[c.pos]
	}
	return 0
}

func (c *Codec) eat(b byte) bool {
	if c.peek() == b {
		c.pos++
		return true
	}
	return false
}

// eatLit consumes lit if it is next.
func (c *Codec) eatLit(lit string) bool {
	if len(c.buf)-c.pos >= len(lit) && string(c.buf[c.pos:c.pos+len(lit)]) == lit {
		c.pos += len(lit)
		return true
	}
	return false
}

// eatKey consumes "name": if it is next.
func (c *Codec) eatKey(name string) bool {
	end := c.pos + len(name) + 3
	if end > len(c.buf) || c.buf[c.pos] != '"' || string(c.buf[c.pos+1:end-2]) != name ||
		c.buf[end-2] != '"' || c.buf[end-1] != ':' {
		return false
	}
	c.pos = end
	return true
}

// integer writes *p, or parses a canonical integer of the given bit size
// into it: an optional minus, then digits without a leading zero, and no
// "-0".
func (c *Codec) integer(p *int64, bitSize int) {
	if c.err != nil {
		return
	}
	if !c.decoding {
		c.buf = strconv.AppendInt(c.buf, *p, 10)
		return
	}
	neg := c.eat('-')
	u, ok := c.digits()
	limit := uint64(1)<<(bitSize-1) - 1
	if neg {
		limit++
	}
	if !ok || u > limit || neg && u == 0 {
		c.failf("want an integer")
		return
	}
	if neg {
		*p = -int64(u)
	} else {
		*p = int64(u)
	}
}

// unsigned writes *p, or parses digits without a leading zero into it.
func (c *Codec) unsigned(p *uint64) {
	if c.err != nil {
		return
	}
	if !c.decoding {
		c.buf = strconv.AppendUint(c.buf, *p, 10)
		return
	}
	u, ok := c.digits()
	if !ok {
		c.failf("want an unsigned integer")
		return
	}
	*p = u
}

// digits parses one or more decimal digits without a leading zero.
func (c *Codec) digits() (uint64, bool) {
	start := c.pos
	var u uint64
	for c.pos < len(c.buf) {
		d := uint64(c.buf[c.pos] - '0')
		if d > 9 {
			break
		}
		if u > (math.MaxUint64-d)/10 {
			return 0, false
		}
		u = u*10 + d
		c.pos++
	}
	n := c.pos - start
	return u, n == 1 || n > 1 && c.buf[start] != '0'
}

// number parses a float and refuses any spelling but the one appendFloat
// gives its value.
func (c *Codec) number(p *float64) {
	start := c.pos
	for c.pos < len(c.buf) && numByte(c.buf[c.pos]) {
		c.pos++
	}
	raw := c.buf[start:c.pos]
	if len(raw) == 0 || len(raw) > 32 {
		c.failf("want a number")
		return
	}
	f, err := strconv.ParseFloat(string(raw), 64)
	var tmp [32]byte
	if err != nil || !bytes.Equal(appendFloat(tmp[:0], f), raw) {
		c.failf("want a canonical number")
		return
	}
	*p = f
}

func numByte(ch byte) bool {
	return '0' <= ch && ch <= '9' || ch == '-' || ch == '+' || ch == '.' || ch == 'e' || ch == 'E'
}

// appendFloat formats a finite f as encoding/json does, like an ES6
// number-to-string conversion: 'f' format, or 'e' below 1e-6 or from 1e21
// on, with e-07 shortened to e-7.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// plain reports whether ch stands for itself in a canonical string:
// printable ASCII other than the quote, the backslash and the three bytes
// encoding/json escapes for HTML.
func plain(ch byte) bool {
	return ch >= 0x20 && ch < 0x7f && ch != '"' && ch != '\\' && ch != '<' && ch != '>' && ch != '&'
}

// appendString quotes s as encoding/json does. A string that is not all
// plain bytes is handed to encoding/json itself, so escapes, U+2028 and
// U+2029, and invalid UTF-8 follow its rules exactly.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// quoted parses a quoted string. One with escapes or non-ASCII bytes is
// unquoted by encoding/json and must quote back to the same bytes.
func (c *Codec) quoted(p *string) {
	start := c.pos
	if !c.eat('"') {
		c.failf("want a string")
		return
	}
	simple := true
	for {
		ch := c.peek()
		if c.pos >= len(c.buf) {
			c.failf("unterminated string")
			return
		}
		if ch == '"' {
			break
		}
		if !plain(ch) {
			simple = false
			if ch == '\\' && c.pos+1 < len(c.buf) {
				c.pos++ // the escaped byte cannot end the string
			}
		}
		c.pos++
	}
	c.pos++
	raw := c.buf[start:c.pos]
	if simple {
		*p = string(raw[1 : len(raw)-1])
		return
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil || !bytes.Equal(appendString(nil, s), raw) {
		c.failf("want a canonical string")
		return
	}
	*p = s
}
