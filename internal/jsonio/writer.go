// Package jsonio writes and scans JSON without reflection, byte for byte
// as encoding/json does. It is the codec of the export path: results files
// (package results) and Perfetto traces (package chrometrace) write
// through Writer, and results files read back through Scanner.
// encoding/json stays the test-only reference both are checked against:
//
//   - Writer's output equals json.Encoder's for the same values, compact or
//     indented by two spaces: strings escape `<`, `>`, `&`, U+2028, U+2029
//     and control characters and coerce invalid UTF-8 to U+FFFD; floats use
//     the ES6 form encoding/json uses; a NaN or infinite float is an error.
//   - Scanner accepts only what encoding/json's scanner accepts, and decodes
//     strings and numbers into the values json.Unmarshal would store.
package jsonio

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// Writer appends one JSON document to a buffer. Containers open with
// Begin and close with End; Key writes an object member's name; the value
// methods write one value each, with the separator and, when indenting,
// the line break the position needs. The first non-finite float sets Err,
// after which Bytes holds no usable document: callers check Err before
// writing Bytes anywhere, so a failed encode writes nothing.
type Writer struct {
	buf      []byte
	indent   bool
	depth    int
	empty    bool // the innermost open container has no element yet
	afterKey bool // a Key was written and its value comes next
	err      error
}

// NewWriter returns a writer that indents by two spaces per level (the
// layout of json.Encoder with SetIndent("", "  ")) or writes compact JSON.
func NewWriter(indent bool) *Writer { return &Writer{indent: indent} }

// Grow makes room for n more bytes, so a caller that can size its
// document up front allocates the buffer once.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// Bytes returns the document written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Err returns the first encoding error.
func (w *Writer) Err() error { return w.err }

// Depth is the number of open containers: an object member's key line is
// indented by Depth levels.
func (w *Writer) Depth() int { return w.depth }

// spaces holds the indentation of the deepest common nesting.
const spaces = "                                                                "

// sep writes what precedes a value or key: nothing after a key, else a
// comma unless the value opens its container, then the line break and
// indentation. It also doubles the buffer ahead of need, since append's
// growth for large slices is 1.25×, which would copy a large document
// about five times over.
func (w *Writer) sep() {
	if cap(w.buf)-len(w.buf) < 1024 {
		w.buf = slices.Grow(w.buf, cap(w.buf)+4096)
	}
	if w.afterKey {
		w.afterKey = false
		return
	}
	if w.depth == 0 {
		return
	}
	if !w.empty {
		w.buf = append(w.buf, ',')
	}
	w.empty = false
	w.newline()
}

func (w *Writer) newline() {
	if !w.indent {
		return
	}
	w.buf = append(w.buf, '\n')
	for n := 2 * w.depth; n > 0; {
		k := min(n, len(spaces))
		w.buf = append(w.buf, spaces[:k]...)
		n -= k
	}
}

// Begin opens an object ('{') or array ('[').
func (w *Writer) Begin(c byte) {
	w.sep()
	w.buf = append(w.buf, c)
	w.depth++
	w.empty = true
}

// End closes the innermost container with c ('}' or ']'). An empty
// container closes on its opening line, as `{}` or `[]`.
func (w *Writer) End(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.buf = append(w.buf, c)
	w.empty = false
}

// Key writes an object member's name and returns w, whose next call
// writes the member's value: w.Key("n").Int(1).
func (w *Writer) Key(k string) *Writer {
	w.sep()
	w.buf = appendString(w.buf, k)
	w.buf = append(w.buf, ':')
	if w.indent {
		w.buf = append(w.buf, ' ')
	}
	w.afterKey = true
	return w
}

// String writes s as a JSON string.
func (w *Writer) String(s string) {
	w.sep()
	w.buf = appendString(w.buf, s)
}

// Int writes an integer.
func (w *Writer) Int(v int) {
	w.sep()
	w.buf = strconv.AppendInt(w.buf, int64(v), 10)
}

// Uint writes an unsigned integer.
func (w *Writer) Uint(v uint64) {
	w.sep()
	w.buf = strconv.AppendUint(w.buf, v, 10)
}

// Bool writes true or false.
func (w *Writer) Bool(v bool) {
	w.sep()
	w.buf = strconv.AppendBool(w.buf, v)
}

// Null writes null.
func (w *Writer) Null() {
	w.sep()
	w.buf = append(w.buf, "null"...)
}

// Float writes a float64 in the shortest form that reads back exactly:
// decimal for 1e-6 ≤ |f| < 1e21 and zero (including "-0"), exponent form
// with a one-digit negative exponent written as "e-7", not "e-07",
// otherwise. A NaN or infinite f sets Err.
func (w *Writer) Float(f float64) {
	w.sep()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		w.Fail(fmt.Errorf("jsonio: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64)))
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(w.buf); n >= 4 && w.buf[n-4] == 'e' && w.buf[n-3] == '-' && w.buf[n-2] == '0' {
			w.buf[n-2] = w.buf[n-1]
			w.buf = w.buf[:n-1]
		}
	}
}

// Floats writes a float64 array; nil writes null.
func (w *Writer) Floats(vs []float64) {
	if vs == nil {
		w.Null()
		return
	}
	w.Begin('[')
	for _, v := range vs {
		w.Float(v)
	}
	w.End(']')
}

// Fail records err as the writer's error unless one is already set.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Raw writes an already encoded value, such as json.MarshalIndent's output
// with the prefix of the key's line (Depth levels of indentation).
func (w *Writer) Raw(b []byte) {
	w.sep()
	w.buf = append(w.buf, b...)
}

// Newline ends the document with a line break, as json.Encoder does.
func (w *Writer) Newline() { w.buf = append(w.buf, '\n') }

const hex = "0123456789abcdef"

// safe marks the ASCII bytes a string holds unescaped: printable, and
// none of `"`, `\` or the HTML-sensitive `<`, `>` and `&`.
var safe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// appendString appends s quoted and escaped as encoding/json does with
// HTML escaping on.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
