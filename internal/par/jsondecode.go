package par

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"phocus/internal/pool"
)

// jsonDecoder parses the instance wire format in one pass over the bytes,
// straight into instanceJSON. It accepts exactly what encoding/json's
// Unmarshal into instanceJSON accepts and produces the same values:
//
//   - the full JSON grammar is checked, including inside skipped values,
//     with the same 10000-level nesting limit; only whitespace may follow
//     the top-level value;
//   - keys match field names case-insensitively (Unicode simple folding,
//     as bytes.EqualFold), after unescaping; unknown keys are skipped;
//   - null leaves a number, string or struct untouched and sets a slice
//     to nil; [] gives an empty, non-nil slice;
//   - a repeated key decodes again into the existing value, so slice
//     elements are reused and struct elements merge field by field;
//   - numbers follow the strict JSON grammar and convert to the values
//     strconv gives encoding/json: an out-of-range float, a fraction or
//     exponent in an integer field, or an int32 overflow in a photo ID is
//     an error (parseFloat says how floats are converted);
//   - a type mismatch (a string where a number belongs, an array for an
//     object, ...) is an error.
//
// Strings with escapes or non-ASCII bytes are unquoted by encoding/json, so
// invalid UTF-8 and lone surrogates decode to U+FFFD exactly as there.
//
// A similarity triple in exactly WriteJSON's layout takes a fast path
// (triple); every other spelling of it takes the general one. A large
// "subsets" array is decoded over several decoders at once (split).
type jsonDecoder struct {
	data  []byte
	off   int
	depth int // open objects and arrays, as encoding/json counts them
	// pairs is the scratch a subset's first "sim" array decodes into
	// before it is copied out at its exact length.
	pairs []pairJSON

	// splits is the most decoders a "subsets" array is split over, and
	// splitFloor the fewest bytes from its start each of them must have;
	// splits ≤ 1 decodes serially.
	splits, splitFloor int
	// build marks a split decoder, which decodes a subset's triples into
	// the compact scratch trip and builds the subset's SparseSim from it
	// as soon as it has decoded the subset (subsetJSON.finish).
	build bool
	trip  []simPair
	// splitAt is the offset of the "subsets" array the subsets in hand
	// were split-decoded from, or 0 if they were decoded serially.
	splitAt int
	// onSplit, if set, is told how many split decoders each split ran
	// and how many of them it kept.
	onSplit func(ran, kept int)
}

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

// splitFloorBytes is the fewest bytes of a "subsets" array, to the end of
// the input, per split decoder: about a third of a millisecond of serial
// decode, so a small body stays on one goroutine.
const splitFloorBytes = 64 << 10

// decode parses the decoder's data into a fresh instanceJSON.
func (d *jsonDecoder) decode() (*instanceJSON, error) {
	in := &instanceJSON{}
	if err := d.instance(in); err != nil {
		return nil, err
	}
	if d.ws() < len(d.data) {
		return nil, d.syntaxError("after top-level value")
	}
	return in, nil
}

// ws skips whitespace and returns the new offset.
func (d *jsonDecoder) ws() int {
	if d.off < len(d.data) && d.data[d.off] > ' ' {
		return d.off // the common case: WriteJSON writes no whitespace
	}
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return d.off
		}
	}
	return d.off
}

// peek returns the next non-space byte, or 0 at the end of the input (a
// literal NUL is never valid JSON either, and syntaxError tells the two
// apart).
func (d *jsonDecoder) peek() byte {
	if d.ws() < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *jsonDecoder) syntaxError(context string) error {
	if d.off >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[d.off], context, d.off)
}

// begin checks the value that is next before a decoder for a want reads
// it: ok says it has a want's type. A null is consumed and reported as
// false, and any other value is an error.
func (d *jsonDecoder) begin(ok bool, want string) (bool, error) {
	if ok {
		return true, nil
	}
	switch c := d.peek(); {
	case c == 'n':
		return false, d.literal("null")
	case c == '"' || c == '{' || c == '[' || c == 't' || c == 'f' || isNumber(c):
		return false, fmt.Errorf("cannot decode the value at offset %d into %s", d.off, want)
	}
	return false, d.syntaxError("looking for beginning of value")
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// literal consumes the keyword lit (true, false or null), which must be
// next.
func (d *jsonDecoder) literal(lit string) error {
	d.ws()
	for i := 0; i < len(lit); i++ {
		if d.off >= len(d.data) || d.data[d.off] != lit[i] {
			return d.syntaxError("in literal " + lit)
		}
		d.off++
	}
	return nil
}

// open consumes the opening bracket c of an object or array.
func (d *jsonDecoder) open(c byte) error {
	if d.peek() != c {
		return d.syntaxError("looking for beginning of value")
	}
	d.off++
	d.depth++
	if d.depth > maxJSONDepth {
		return errors.New("exceeded max depth")
	}
	return nil
}

// more reports whether another element follows in the container closed by
// end, consuming the separating comma or the closing bracket. first is true
// before the first element, where only the closing bracket may appear.
func (d *jsonDecoder) more(end byte, first bool) (bool, error) {
	c := d.peek()
	switch {
	case c == end:
		d.off++
		d.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.off++
		return true, nil
	case end == '}':
		return false, d.syntaxError("after object key:value pair")
	}
	return false, d.syntaxError("after array element")
}

// object decodes the object that is next, calling field with each key,
// unescaped, and leaving field to consume the value.
func (d *jsonDecoder) object(field func(key []byte) error) error {
	if err := d.open('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		ok, err := d.more('}', first)
		if err != nil || !ok {
			return err
		}
		if d.peek() != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.syntaxError("after object key")
		}
		d.off++
		if err := field(key); err != nil {
			return err
		}
	}
}

// key scans the object key that is next and returns it unescaped; a key
// of printable ASCII without escapes is a slice of the input.
func (d *jsonDecoder) key() ([]byte, error) {
	start := d.off
	raw, plain, err := d.str()
	if err != nil || plain {
		return raw, err
	}
	var s string
	err = json.Unmarshal(d.data[start:d.off], &s)
	return []byte(s), err
}

// is reports whether key names the field name, matched as encoding/json
// matches keys: exactly or under Unicode case folding.
func is(key []byte, name string) bool {
	return string(key) == name || strings.EqualFold(string(key), name)
}

// str scans the string that is next and returns its raw contents between
// the quotes, and whether they are plain (printable ASCII without escapes)
// and so equal to the decoded value.
func (d *jsonDecoder) str() (raw []byte, plain bool, err error) {
	data, start := d.data, d.ws()+1
	plain = true
	for i := start; i < len(data); i++ {
		c := data[i]
		switch {
		case c == '"':
			d.off = i + 1
			return data[start:i], plain, nil
		case c < 0x20:
			d.off = i
			return nil, false, d.syntaxError("in string literal")
		case c >= 0x80:
			plain = false
		case c == '\\':
			plain = false
			if i+1 >= len(data) {
				break
			}
			i++
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4 && i+1 < len(data); k++ {
					if i++; !isHex(data[i]) {
						d.off = i
						return nil, false, d.syntaxError(`in \u hexadecimal character escape`)
					}
				}
			default:
				d.off = i
				return nil, false, d.syntaxError("in string escape code")
			}
		}
	}
	d.off = len(data)
	return nil, false, d.syntaxError("")
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// string decodes a string field; null leaves it unchanged.
func (d *jsonDecoder) string(dst *string) error {
	if ok, err := d.begin(d.peek() == '"', "string"); !ok {
		return err
	}
	start := d.off
	raw, plain, err := d.str()
	if err != nil {
		return err
	}
	if plain {
		*dst = string(raw)
		return nil
	}
	return json.Unmarshal(d.data[start:d.off], dst)
}

// number scans the number that is next and returns its token and value.
func (d *jsonDecoder) number() (tok []byte, num decimal, err error) {
	start := d.ws()
	num, end, bad := scanNumber(d.data, start)
	d.off = end
	if bad != "" {
		return nil, num, d.syntaxError(bad)
	}
	return d.data[start:end], num, nil
}

// decimal is the value of a number token, read while it is scanned: the
// token is ±man × 10^exp exactly when digits ≤ 19. digits counts the
// significant digits from the first nonzero one; past 19, man and exp
// are not kept and the token must be converted from its text.
type decimal struct {
	man      uint64
	exp      int
	digits   int
	neg      bool
	integral bool // no fraction and no exponent
}

// scanNumber scans the number at data[i:] under the strict JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its value
// and the offset after it. For a malformed number, end is the offset of
// the offending byte and bad the context its syntax error names.
func scanNumber(data []byte, i int) (num decimal, end int, bad string) {
	if i < len(data) && data[i] == '-' {
		num.neg = true
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else {
		first := i
		if num.man, i = digits(data, i, 0); i == first {
			return num, i, "in numeric literal"
		}
		num.digits = i - first
	}
	num.integral = true
	if i < len(data) && data[i] == '.' {
		num.integral = false
		i++
		first := i
		if num.man == 0 {
			for i < len(data) && data[i] == '0' {
				i++ // a leading zero is not significant
			}
		}
		nonzero := i
		if num.man, i = digits(data, i, num.man); i == first {
			return num, i, "after decimal point in numeric literal"
		}
		num.digits += i - nonzero
		num.exp = first - i
	}
	if i < len(data) && data[i]|0x20 == 'e' {
		num.integral = false
		i++
		neg := i < len(data) && data[i] == '-'
		if i < len(data) && (data[i] == '+' || neg) {
			i++
		}
		first, e := i, 0
		for ; i < len(data) && isDigit(data[i]); i++ {
			if e < 10000 { // far outside the table already; stop before overflow
				e = e*10 + int(data[i]-'0')
			}
		}
		if i == first {
			return num, i, "in exponent of numeric literal"
		}
		if neg {
			e = -e
		}
		num.exp += e
	}
	return num, i, ""
}

// digits appends the decimal digits at data[i:] to man and returns it and
// the offset after them; man wraps past 19 digits.
func digits(data []byte, i int, man uint64) (uint64, int) {
	for ; i < len(data); i++ {
		c := data[i] - '0'
		if c > 9 {
			break
		}
		man = man*10 + uint64(c)
	}
	return man, i
}

// isNumber reports whether a number starts with c.
func isNumber(c byte) bool { return c == '-' || isDigit(c) }

// float decodes a float64 field; null leaves it unchanged.
func (d *jsonDecoder) float(dst *float64) error {
	if ok, err := d.begin(isNumber(d.peek()), "float64"); !ok {
		return err
	}
	tok, num, err := d.number()
	if err != nil {
		return err
	}
	f, err := parseFloat(tok, num)
	if err != nil {
		return err
	}
	*dst = f
	return nil
}

// parseFloat converts a token of the JSON number grammar, scanned as num,
// to the float64 strconv.ParseFloat gives, as encoding/json does; a token
// beyond float64's range is an error. strconv's fast paths convert num
// where they decide (fastFloat); strconv converts tok everywhere else.
func parseFloat(tok []byte, num decimal) (float64, error) {
	if f, ok := num.fastFloat(); ok {
		return f, nil
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s out of float64 range", tok)
	}
	return f, nil
}

// integer decodes an integer in [lo, hi]; a fraction or exponent, even one
// with an integral value, is an error as in encoding/json. null reports
// ok=false.
func (d *jsonDecoder) integer(lo, hi int64, want string) (v int64, ok bool, err error) {
	if ok, err := d.begin(isNumber(d.peek()), want); !ok {
		return 0, false, err
	}
	tok, num, err := d.number()
	if err != nil {
		return 0, false, err
	}
	if num.integral && num.digits <= 18 {
		// At most 18 digits cannot overflow int64.
		v = int64(num.man)
		if num.neg {
			v = -v
		}
	} else if num.integral {
		if v, err = strconv.ParseInt(string(tok), 10, 64); err != nil {
			return 0, false, fmt.Errorf("number %s overflows %s", tok, want)
		}
	} else {
		return 0, false, fmt.Errorf("cannot decode number %s into %s", tok, want)
	}
	if v < lo || v > hi {
		return 0, false, fmt.Errorf("number %d overflows %s", v, want)
	}
	return v, true, nil
}

// int decodes an int field; null leaves it unchanged.
func (d *jsonDecoder) int(dst *int) error {
	v, ok, err := d.integer(math.MinInt, math.MaxInt, "int")
	if ok {
		*dst = int(v)
	}
	return err
}

// photoID decodes a PhotoID (int32) field; null leaves it unchanged.
func (d *jsonDecoder) photoID(dst *PhotoID) error {
	v, ok, err := d.integer(math.MinInt32, math.MaxInt32, "PhotoID")
	if ok {
		*dst = PhotoID(v)
	}
	return err
}

// array decodes a slice field with encoding/json's rules: null sets it to
// nil, [] to an empty non-nil slice, and otherwise element i decodes into
// the existing element i where there is one, the slice growing or being cut
// to the array's length.
func array[T any](d *jsonDecoder, dst *[]T, elem func(*T) error) error {
	if ok, err := d.begin(d.peek() == '[', "array"); !ok {
		if err == nil {
			*dst = nil
		}
		return err
	}
	if err := d.open('['); err != nil {
		return err
	}
	return elements(d, dst, *dst, 0, elem)
}

// elements decodes the elements of an open array from the i-th on into s:
// from its start, or after the i elements a split decode verified.
func elements[T any](d *jsonDecoder, dst *[]T, s []T, i int, elem func(*T) error) error {
	for ; ; i++ {
		ok, err := d.more(']', i == 0)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if i == cap(s) {
			// Doubling keeps a large array's copies to one pass over its
			// final size; append grows large slices by a quarter.
			s = slices.Grow(s, max(cap(s), 4))
		}
		if i == len(s) {
			s = s[:i+1]
		}
		if err := elem(&s[i]); err != nil {
			return err
		}
	}
	if i == 0 {
		s = []T{}
	}
	*dst = s[:i]
	return nil
}

// skip consumes and validates one value of any type.
func (d *jsonDecoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		if err := d.open('['); err != nil {
			return err
		}
		for first := true; ; first = false {
			ok, err := d.more(']', first)
			if err != nil || !ok {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case isNumber(c):
		_, _, err := d.number()
		return err
	}
	return d.syntaxError("looking for beginning of value")
}

// instance decodes the top-level value: an instance object, or null.
func (d *jsonDecoder) instance(in *instanceJSON) error {
	if ok, err := d.begin(d.peek() == '{', "instance"); !ok {
		return err
	}
	return d.object(func(key []byte) error {
		switch {
		case is(key, "costs"):
			return array(d, &in.Costs, d.float)
		case is(key, "retained"):
			return array(d, &in.Retained, d.photoID)
		case is(key, "budget"):
			return d.float(&in.Budget)
		case is(key, "subsets"):
			return d.subsets(&in.Subsets)
		}
		return d.skip()
	})
}

// subsets decodes the "subsets" array into *dst. Into a nil slice, an
// array with room for more than one split decoder goes to split; a
// repeated key decodes serially into the subsets already there.
func (d *jsonDecoder) subsets(dst *[]subsetJSON) error {
	if d.splitAt > 0 {
		// The subsets in hand were split-decoded, and their SparseSims
		// built from triples that are gone. Decoding their array again,
		// serially, gives back the triples the repeated key merges into.
		r := &jsonDecoder{data: d.data, off: d.splitAt, depth: d.depth}
		*dst, d.splitAt = nil, 0
		if err := array(r, dst, r.subset); err != nil {
			return err
		}
	}
	splits := d.splits
	if d.splitFloor > 0 {
		splits = min(splits, (len(d.data)-d.ws())/d.splitFloor)
	}
	if *dst != nil || splits <= 1 || d.peek() != '[' {
		return array(d, dst, d.subset)
	}
	return d.split(dst, splits)
}

// subsetSep is WriteJSON's separator between two subsets: the end of one
// and the first key of the next.
const subsetSep = `},{"name":`

// split decodes the subsets array at d.off into the nil slice *dst over up
// to splits decoders at once, each building its subsets' SparseSims. Split
// 0 starts at the array; split w at the element after the first subsetSep
// past the w-th of splits evenly spaced offsets to the end of the input.
// That guess may be wrong (the separator sits inside another value, or
// past the array), so each split decodes whole subsets until one ends
// right before the next split's start (the last split: until the array
// closes), and split w's subsets are kept only if split w-1's were and it
// ended there. Split 0 starts where the serial decoder would, so each kept
// split starts on an element boundary too, at the depth and with the
// subsets before it the serial decoder would have: its subsets are the
// serial decoder's. From the end of the last kept split, the serial
// decoder decodes the rest, with its errors.
func (d *jsonDecoder) split(dst *[]subsetJSON, splits int) error {
	at := d.off
	starts := []int{at}
	for w := 1; w < splits; w++ {
		from := max(at+(len(d.data)-at)*w/splits, starts[len(starts)-1])
		i := bytes.Index(d.data[from:], []byte(subsetSep))
		if i < 0 {
			break
		}
		starts = append(starts, from+i+2)
	}
	if len(starts) == 1 {
		return array(d, dst, d.subset)
	}
	parts := make([]splitPart, len(starts))
	pool.ForEach(len(parts), len(parts), func(w int) {
		end := -1
		if w+1 < len(starts) {
			end = starts[w+1] - 1 // the comma before the next split
		}
		parts[w] = d.decodeSplit(starts[w], end, w == 0)
	})
	var s []subsetJSON
	kept := 0
	for ; kept < len(parts) && parts[kept].ok; kept++ {
		s = append(s, parts[kept].subsets...)
	}
	if d.onSplit != nil {
		d.onSplit(len(parts), kept)
	}
	if kept == 0 {
		return array(d, dst, d.subset)
	}
	d.splitAt = at
	if kept == len(parts) {
		*dst, d.off = s, parts[kept-1].off
		return nil
	}
	d.off, d.depth = starts[kept]-1, d.depth+1
	return elements(d, dst, s, len(s), d.subset)
}

// splitPart is what one split decoder made of its share of the array.
type splitPart struct {
	subsets []subsetJSON
	off     int  // the offset it stopped at
	ok      bool // it ended where its share ends
}

// tripleScratch holds the split decoders' triple scratch between decodes,
// so each body's triples decode into memory an earlier body already grew.
var tripleScratch = sync.Pool{New: func() any { return new([]simPair) }}

// decodeSplit decodes whole subsets from start, which is the array for the
// first split and an element for the others, until one ends at end (the
// last split, end < 0: until the array closes). A subset the split decoder
// leaves to the serial one (subsetJSON.finish) ends the split there, not
// kept.
func (d *jsonDecoder) decodeSplit(start, end int, first bool) (p splitPart) {
	scratch := tripleScratch.Get().(*[]simPair)
	sd := &jsonDecoder{data: d.data, off: start, depth: d.depth, build: true, trip: *scratch}
	defer func() {
		*scratch = sd.trip[:0]
		tripleScratch.Put(scratch)
	}()
	if first {
		if sd.open('[') != nil {
			return p
		}
	} else {
		sd.depth++ // inside the array
	}
	for i := 0; ; i++ {
		if first || i > 0 {
			more, err := sd.more(']', i == 0)
			if err != nil {
				return p
			}
			if !more {
				p.off, p.ok = sd.off, end < 0
				return p
			}
		}
		p.subsets = append(p.subsets, subsetJSON{})
		q := &p.subsets[len(p.subsets)-1]
		if sd.subset(q) != nil || !q.finish() {
			return p
		}
		if end >= 0 && sd.off >= end {
			p.off, p.ok = sd.off, sd.off == end
			return p
		}
	}
}

// finish builds a split-decoded subset's SparseSim straight from its
// triples in the decoder's scratch, dropping diagonal ones in place, and
// reports whether it could. A triple that fails a check (build names the
// failure) leaves the subset, and the rest of its split, to the serial
// decoder, which decodes the triples as given and names it.
func (q *subsetJSON) finish() bool {
	k := len(q.Members)
	pairs := q.trip[:0]
	for _, p := range q.trip {
		if p.i < 0 || int(p.i) >= k || p.j < 0 || int(p.j) >= k || p.i != p.j && (p.sim <= 0 || p.sim > 1) {
			return false
		}
		if p.i != p.j {
			pairs = append(pairs, p)
		}
	}
	sim, err := buildSparse(k, pairs, nil)
	q.trip = nil
	if err != nil {
		return false
	}
	q.sparse = sim
	return true
}

// subset decodes one subset object; null leaves it unchanged.
func (d *jsonDecoder) subset(q *subsetJSON) error {
	if ok, err := d.begin(d.peek() == '{', "subset"); !ok {
		return err
	}
	return d.object(func(key []byte) error {
		switch {
		case is(key, "name"):
			return d.string(&q.Name)
		case is(key, "weight"):
			return d.float(&q.Weight)
		case is(key, "members"):
			return array(d, &q.Members, d.photoID)
		case is(key, "relevance"):
			return array(d, &q.Relevance, d.float)
		case is(key, "sim"):
			if d.build {
				return d.splitSim(q)
			}
			return d.sim(&q.Sim)
		case is(key, "vectors"):
			return array(d, &q.Vectors, d.vector)
		}
		return d.skip()
	})
}

// sim decodes a subset's similarity triples. The first "sim" key of a
// subset decodes into the scratch the decoder reuses across subsets, so
// the kept slice is allocated once, at its final length; a repeated key
// decodes into the triples already there, as encoding/json does.
func (d *jsonDecoder) sim(dst *[]pairJSON) error {
	if *dst != nil {
		return array(d, dst, d.pair)
	}
	pairs := d.pairs[:0]
	err := array(d, &pairs, d.freshPair)
	*dst = slices.Clone(pairs)
	if cap(pairs) > cap(d.pairs) {
		d.pairs = pairs[:0]
	}
	return err
}

// errSerial stops a split decoder at a subset whose triples only the serial
// decoder takes as encoding/json does.
var errSerial = errors.New("par: subset left to the serial decoder")

// splitSim decodes a split-decoded subset's triples into the compact
// scratch trip, which finish builds the subset's SparseSim from. A repeated
// "sim" key after a non-null array, whose triples merge into the first's,
// and an index beyond int32 stop the split decoder (errSerial): the serial
// decoder decodes that subset as encoding/json does.
func (d *jsonDecoder) splitSim(q *subsetJSON) error {
	if q.trip != nil {
		return errSerial
	}
	trip := d.trip[:0]
	err := array(d, &trip, d.compactPair)
	q.trip = trip
	if cap(trip) > cap(d.trip) {
		d.trip = trip[:0]
	}
	return err
}

// compactPair decodes a triple into a compact scratch element.
func (d *jsonDecoder) compactPair(p *simPair) error {
	var t pairJSON
	if err := d.pair(&t); err != nil {
		return err
	}
	if t.I != int(int32(t.I)) || t.J != int(int32(t.J)) {
		return errSerial
	}
	*p = simPair{int32(t.I), int32(t.J), t.Sim}
	return nil
}

// freshPair decodes a triple into a scratch element, clearing what an
// earlier subset left there.
func (d *jsonDecoder) freshPair(p *pairJSON) error {
	*p = pairJSON{}
	return d.pair(p)
}

// vector decodes one context vector.
func (d *jsonDecoder) vector(v *[]float64) error { return array(d, v, d.float) }

// pair decodes one similarity triple; null leaves it unchanged.
func (d *jsonDecoder) pair(p *pairJSON) error {
	if d.triple(p) {
		return nil
	}
	if ok, err := d.begin(d.peek() == '{', "similarity pair"); !ok {
		return err
	}
	return d.object(func(key []byte) error {
		switch {
		case is(key, "i"):
			return d.int(&p.I)
		case is(key, "j"):
			return d.int(&p.J)
		case is(key, "s"):
			return d.float(&p.Sim)
		}
		return d.skip()
	})
}

// triple decodes the triple that is next when it is spelled exactly as
// WriteJSON writes it, {"i":I,"j":J,"s":S} without whitespace, with I and
// J non-negative integers of at most 18 digits and S a number in float64's
// range, and reports whether it did. Any other spelling (whitespace, other
// key orders, folded, escaped, repeated or extra keys, null, a negative or
// fractional index, an error) leaves the offset at the triple for the
// general path, which decodes or rejects it as encoding/json would.
func (d *jsonDecoder) triple(p *pairJSON) bool {
	data := d.data
	i, at, ok := tripleIndex(data, d.ws(), `{"i":`)
	if !ok {
		return false
	}
	j, at, ok := tripleIndex(data, at, `,"j":`)
	if !ok || !hasKey(data, at, `,"s":`) {
		return false
	}
	start := at + len(`,"s":`)
	num, end, bad := scanNumber(data, start)
	if bad != "" || end >= len(data) || data[end] != '}' {
		return false
	}
	s, err := parseFloat(data[start:end], num)
	if err != nil {
		return false
	}
	p.I, p.J, p.Sim = i, j, s
	d.off = end + 1
	return true
}

// tripleIndex reads the literal key at data[at:] and the index after it:
// 1 to 18 digits, no leading zero. It returns the index and the offset
// after its digits, where the caller checks that the index ends.
func tripleIndex(data []byte, at int, key string) (v, end int, ok bool) {
	if !hasKey(data, at, key) {
		return 0, at, false
	}
	at += len(key)
	if at < len(data) && data[at] == '0' {
		return 0, at + 1, true
	}
	man, end := digits(data, at, 0)
	return int(man), end, end > at && end-at <= 18
}

// hasKey reports whether data[at:] starts with key.
func hasKey(data []byte, at int, key string) bool {
	return len(data)-at >= len(key) && string(data[at:at+len(key)]) == key
}
