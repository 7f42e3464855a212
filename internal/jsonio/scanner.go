package jsonio

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a value nested deeper is a
// syntax error there, so it is one here.
const maxDepth = 10000

// Scanner reads one JSON document from a byte slice, value by value, the
// way a hand-written decoder walks its types. It accepts exactly the
// syntax encoding/json accepts and stores what json.Unmarshal stores, with
// three deliberate differences, each of which is an error where
// encoding/json would go on: a member named twice in one struct object, a
// member whose name matches a field only case-insensitively, and bytes
// after the document (see End). The value readers read `null` as the zero
// value, which is what json.Unmarshal leaves in a field it has not set.
type Scanner struct {
	data    []byte
	pos     int
	depth   int
	scratch []byte
	// strs interns short decoded strings: traces repeat a handful of loop
	// and program names in every event.
	strs map[string]string
}

// NewScanner returns a scanner over data.
func NewScanner(data []byte) *Scanner {
	return &Scanner{data: data, strs: map[string]string{}}
}

// errorf reports a decode error at the current offset.
func (s *Scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *Scanner) peek() byte {
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; {
		case c > ' ':
			return c
		case c == ' ', c == '\t', c == '\n', c == '\r':
			s.pos++
		default:
			return c
		}
	}
	return 0
}

// expect consumes byte c after optional whitespace.
func (s *Scanner) expect(c byte) error {
	if s.peek() != c {
		return s.unexpected(string(c))
	}
	s.pos++
	return nil
}

func (s *Scanner) unexpected(want string) error {
	if s.pos >= len(s.data) {
		return s.errorf("unexpected end of input, want %s", want)
	}
	return s.errorf("unexpected %q, want %s", s.data[s.pos], want)
}

// End requires that nothing but whitespace follows the document.
func (s *Scanner) End() error {
	if s.peek(); s.pos != len(s.data) {
		return s.unexpected("end of input")
	}
	return nil
}

// Null consumes a null literal if one comes next.
func (s *Scanner) Null() (bool, error) {
	if s.peek() != 'n' {
		return false, nil
	}
	return true, s.literal("null")
}

func (s *Scanner) literal(lit string) error {
	if len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return s.unexpected(lit)
	}
	s.pos += len(lit)
	return nil
}

// Object reads an object and calls member for each member, in order, with
// the unescaped name (valid until member returns); member must read the
// value. A null reads as no members and null reports true, so a caller
// can tell a null map from an empty one.
func (s *Scanner) Object(member func(name []byte) error) (null bool, err error) {
	if null, err := s.Null(); null || err != nil {
		return null, err
	}
	if err := s.expect('{'); err != nil {
		return false, err
	}
	if s.depth++; s.depth > maxDepth {
		return false, s.errorf("exceeded max depth")
	}
	if s.peek() == '}' {
		s.pos++
		s.depth--
		return false, nil
	}
	for {
		if s.peek() != '"' {
			return false, s.unexpected("string")
		}
		name, err := s.str()
		if err != nil {
			return false, err
		}
		if err := s.expect(':'); err != nil {
			return false, err
		}
		if err := member(name); err != nil {
			return false, err
		}
		switch s.peek() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			s.depth--
			return false, nil
		default:
			return false, s.unexpected("',' or '}'")
		}
	}
}

// Fields reads an object into a struct whose members are named by names
// (at most 64): field is called with the matched entry of names and must
// read the value. Members no name matches are skipped, as encoding/json
// skips them. A member named twice, or one whose name matches a field only
// under encoding/json's case folding (which would assign it), is an error.
// A null object sets nothing.
func (s *Scanner) Fields(names []string, field func(name string) error) error {
	var seen uint64
	next := 0
	_, err := s.Object(func(name []byte) error {
		i := next
		if i >= len(names) || string(name) != names[i] {
			for i = 0; i < len(names) && string(name) != names[i]; i++ {
			}
		}
		if i == len(names) {
			folded := foldName(name)
			for _, n := range names {
				if string(folded) == string(foldName([]byte(n))) {
					return s.errorf("member %q matches field %q only case-insensitively", name, n)
				}
			}
			return s.Skip()
		}
		if seen&(1<<i) != 0 {
			return s.errorf("member %q appears twice", name)
		}
		seen |= 1 << i
		next = i + 1
		return field(names[i])
	})
	return err
}

// Array reads an array, calling elem once per element; elem must read it.
// A null reads as no elements and null reports true, so a caller can tell
// a null slice from an empty one.
func (s *Scanner) Array(elem func() error) (null bool, err error) {
	if null, err := s.Null(); null || err != nil {
		return null, err
	}
	if err := s.expect('['); err != nil {
		return false, err
	}
	if s.depth++; s.depth > maxDepth {
		return false, s.errorf("exceeded max depth")
	}
	if s.peek() == ']' {
		s.pos++
		s.depth--
		return false, nil
	}
	for {
		if err := elem(); err != nil {
			return false, err
		}
		switch s.peek() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			s.depth--
			return false, nil
		default:
			return false, s.unexpected("',' or ']'")
		}
	}
}

// Skip reads and discards one value of any type.
func (s *Scanner) Skip() error {
	switch c := s.peek(); {
	case c == '{':
		_, err := s.Object(func([]byte) error { return s.Skip() })
		return err
	case c == '[':
		_, err := s.Array(s.Skip)
		return err
	case c == '"':
		_, err := s.str()
		return err
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '-' || c >= '0' && c <= '9':
		_, err := s.number()
		return err
	default:
		return s.unexpected("value")
	}
}

// Raw reads one value of any type and returns its bytes.
func (s *Scanner) Raw() ([]byte, error) {
	s.peek()
	start := s.pos
	if err := s.Skip(); err != nil {
		return nil, err
	}
	return s.data[start:s.pos], nil
}

// String reads a string; null reads as "".
func (s *Scanner) String() (string, error) {
	if null, err := s.Null(); null || err != nil {
		return "", err
	}
	if s.peek() != '"' {
		return "", s.unexpected("string")
	}
	b, err := s.str()
	if err != nil {
		return "", err
	}
	if len(b) > 64 {
		return string(b), nil
	}
	if v, ok := s.strs[string(b)]; ok {
		return v, nil
	}
	v := string(b)
	s.strs[v] = v
	return v, nil
}

// Bool reads true or false; null reads as false.
func (s *Scanner) Bool() (bool, error) {
	switch s.peek() {
	case 't':
		return true, s.literal("true")
	case 'f':
		return false, s.literal("false")
	case 'n':
		return false, s.literal("null")
	}
	return false, s.unexpected("boolean")
}

// Float reads a number as json.Unmarshal reads it into a float64: a
// literal beyond float64's range is an error. null reads as 0.
func (s *Scanner) Float() (float64, error) {
	lit, err := s.numberOrNull()
	if lit == nil || err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, s.errorf("number %s does not fit a float64", lit)
	}
	return v, nil
}

// Int reads a number as json.Unmarshal reads it into an int: a fraction,
// an exponent or an overflow is an error. null reads as 0.
func (s *Scanner) Int() (int, error) {
	lit, err := s.numberOrNull()
	if lit == nil || err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return 0, s.errorf("number %s does not fit an int", lit)
	}
	return int(v), nil
}

// Uint reads a number as json.Unmarshal reads it into a uint64: a sign, a
// fraction, an exponent or an overflow is an error. null reads as 0.
func (s *Scanner) Uint() (uint64, error) {
	lit, err := s.numberOrNull()
	if lit == nil || err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		return 0, s.errorf("number %s does not fit a uint64", lit)
	}
	return v, nil
}

// Floats reads a float64 array: null reads as nil, [] as an empty non-nil
// slice, and null elements as 0, as json.Unmarshal stores them.
func (s *Scanner) Floats() ([]float64, error) {
	vs := []float64{}
	null, err := s.Array(func() error {
		v, err := s.Float()
		vs = append(vs, v)
		return err
	})
	if null || err != nil {
		return nil, err
	}
	return vs, nil
}

// numberOrNull reads a number literal, or null as a nil literal.
func (s *Scanner) numberOrNull() ([]byte, error) {
	switch c := s.peek(); {
	case c == 'n':
		return nil, s.literal("null")
	case c == '-' || c >= '0' && c <= '9':
		return s.number()
	}
	return nil, s.unexpected("number")
}

// number reads a literal of JSON's number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *Scanner) number() ([]byte, error) {
	d, start := s.data, s.pos
	i := start
	digits := func() bool {
		j := i
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		s.pos = i
		return nil, s.unexpected("digit")
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			s.pos = i
			return nil, s.unexpected("digit")
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			s.pos = i
			return nil, s.unexpected("digit")
		}
	}
	s.pos = i
	return d[start:i], nil
}

// str reads a string literal at s.pos and returns its unescaped bytes:
// a subslice of the input when the literal needs no unescaping, else the
// scanner's scratch buffer, so the result is valid until the next call.
// Invalid UTF-8 and unpaired surrogate escapes become U+FFFD, as in
// encoding/json.
func (s *Scanner) str() ([]byte, error) {
	d := s.data
	start := s.pos + 1
	i := start
	for i < len(d) {
		c := d[i]
		if c == '"' {
			s.pos = i + 1
			return d[start:i], nil
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(d[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	b := append(s.scratch[:0], d[start:i]...)
	for {
		if i >= len(d) {
			s.pos = i
			return nil, s.unexpected("'\"'")
		}
		c := d[i]
		switch {
		case c == '"':
			s.pos = i + 1
			s.scratch = b
			return b, nil
		case c < ' ':
			s.pos = i
			return nil, s.errorf("control character %#x in string", c)
		case c == '\\':
			if i+1 >= len(d) {
				s.pos = i + 1
				return nil, s.unexpected("escape")
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d[i:])
				if r < 0 {
					s.pos = i
					return nil, s.errorf("invalid \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if r2 := hex4(d[i:]); r2 >= 0 {
						if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
							b = utf8.AppendRune(b, dec)
							i += 6
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				s.pos = i + 1
				return nil, s.errorf("invalid escape %q", e)
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
}

// hex4 decodes the `\uXXXX` escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// foldName is encoding/json's case folding of member names: two names
// match a field alike when their folds are equal.
func foldName(in []byte) []byte {
	out := make([]byte, 0, len(in))
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		out = utf8.AppendRune(out, unicode.ToUpper(unicode.ToLower(r)))
		i += n
	}
	return out
}
