package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

// oracleReadText is the din parser as it stood before the canonical-line
// fast path: every line goes through TrimSpace, Fields, Atoi and
// ParseUint. It is kept verbatim as the oracle the fast path must match on
// every input — same trace, or same error.
func oracleReadText(r io.Reader, maxRefs int) (*Trace, error) {
	t := New(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	oversize := func(err error) error {
		if rerr := sc.Err(); rerr != nil {
			return rerr
		}
		return err
	}
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, oversize(fmt.Errorf("trace: line %d: want \"<label> <hexaddr>\", got %q", lineno, line))
		}
		label, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, oversize(fmt.Errorf("trace: line %d: bad label %q: %v", lineno, fields[0], err))
		}
		kind, ok := kindFromLabel(label)
		if !ok {
			return nil, oversize(fmt.Errorf("trace: line %d: unknown label %d", lineno, label))
		}
		addr, err := strconv.ParseUint(fields[1], 16, 32)
		if err != nil {
			return nil, oversize(fmt.Errorf("trace: line %d: bad address %q: %v", lineno, fields[1], err))
		}
		if maxRefs > 0 && t.Len() >= maxRefs {
			return nil, &LimitError{What: "references", Limit: int64(maxRefs)}
		}
		t.Append(Ref{Addr: uint32(addr), Kind: kind})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// FuzzDinLine checks the fast path against the general one line at a
// time: every line parseDinLine accepts, parseDinText must accept with
// the same reference.
func FuzzDinLine(f *testing.F) {
	for _, s := range []string{
		"0 0", "1 10", "2 ffffffff", "2 FFFFFFFF", "0 aBcD", "1 0000000a",
		"2 123456789", "3 10", "0  10", "0\t10", "+2 10", "-0 10", "0 0x10",
		"0 g", "2 ", " 2 10", "2 10 ", "# 2 10", "",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		fast, ok := parseDinLine(line)
		if !ok {
			return
		}
		slow, ok, err := parseDinText(string(line), 1)
		if err != nil || !ok {
			t.Fatalf("fast path accepted %q, general path: ok=%v err=%v", line, ok, err)
		}
		if fast != slow {
			t.Fatalf("line %q: fast path %+v, general path %+v", line, fast, slow)
		}
	})
}

// FuzzReadTextDifferential runs whole inputs through ReadTextLimits and
// Decode, and through the oracle under the same limits: the results must
// be the same trace, or errors with the same text and the same
// *LimitError.
func FuzzReadTextDifferential(f *testing.F) {
	for _, c := range []struct {
		in       string
		maxRefs  int
		maxBytes int64
	}{
		{"0 10\n1 20\n2 30\n", 0, 0},
		{"0\t10\n2\t\tff\n1 \t 7\n", 0, 0},                      // tabs
		{"0 10\r\n1 20\r\n2 ff\r\n", 0, 0},                      // CRLF
		{"2 ABCDEF\n0 aBcD\n1 FFFFFFFF\n", 0, 0},                // uppercase hex
		{"0 000000010\n2 0000000000ffffffff\n", 0, 0},           // zero-padded, 9+ digits
		{"+2 10\n-0 20\n", 0, 0},                                // signed labels
		{"0 0x10\n", 0, 0},                                      // 0x prefix
		{"0\u00a010\n2\u0085ff\n\u00a01 7\u0085\n", 0, 0},       // U+00A0, U+0085 separators
		{"0 100000000\n", 0, 0},                                 // address overflow
		{"0 fffffffff\n", 0, 0},                                 // 9 significant digits
		{"99999999999999999999 10\n", 0, 0},                     // label overflow
		{"  # indented\n\t#tab\n0 1\n   \n# 2 zz\n2 2\n", 0, 0}, // comments, blanks
		{"0 10 trailing fields\n", 0, 0},
		{"0\n", 0, 0},
		{"3 10\n", 0, 0},
		{"2 zz\n", 0, 0},
		{"2 10", 0, 0}, // no final newline
		{"", 0, 0},
		{"0 1\n0 2\n0 3\n", 2, 0},        // MaxRefs cut-off on a fast-path line
		{"0 1\n0 2\n 0 3\n", 2, 0},       // ... and on a general-path line
		{"0 1\n0 2\n", 2, 0},             // exactly MaxRefs
		{"0 1\n2 12345678\n", 0, 9},      // MaxBytes cuts a valid-looking fragment
		{"0 1\n2 1234567g\n", 0, 12},     // MaxBytes cuts before a bad byte
		{"0 1\n2 zz\n", 0, 5},            // MaxBytes cuts a bad line
		{"0 1\n2 12345678\n", 0, 15},     // exactly MaxBytes
		{"0 1\n2 12345678\n0 1\n", 1, 9}, // both limits
		{strings.Repeat("2 1\n", 64), 0, 0},
	} {
		f.Add([]byte(c.in), c.maxRefs, c.maxBytes)
	}
	f.Add(append(bytes.Repeat([]byte("f"), 1<<20+1), '\n'), 0, int64(0)) // line past the scanner's cap
	f.Fuzz(func(t *testing.T, in []byte, maxRefs int, maxBytes int64) {
		if maxRefs < 0 || maxBytes < 0 {
			return
		}
		lim := Limits{MaxRefs: maxRefs, MaxBytes: maxBytes}
		want, wantErr := oracleReadText(lim.limit(bytes.NewReader(in)), maxRefs)
		got, err := ReadTextLimits(bytes.NewReader(in), lim)
		sameDecode(t, "ReadTextLimits", got, err, want, wantErr)
		if len(in) >= 4 && ([4]byte(in[:4]) == binMagic || [4]byte(in[:4]) == ctz1Magic) {
			return // Decode takes a binary codec
		}
		got, err = Decode(bytes.NewReader(in), lim)
		sameDecode(t, "Decode", got, err, want, wantErr)
	})
}

func sameDecode(t *testing.T, path string, got *Trace, err error, want *Trace, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: err %v, oracle err %v", path, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("%s: err %q, oracle err %q", path, err, wantErr)
		}
		var le, wantLE *LimitError
		if errors.As(err, &le) != errors.As(wantErr, &wantLE) || (le != nil && *le != *wantLE) {
			t.Fatalf("%s: limit error %v, oracle %v", path, le, wantLE)
		}
		return
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d refs, oracle %d", path, got.Len(), want.Len())
	}
	for i := range want.Refs {
		if got.Refs[i] != want.Refs[i] {
			t.Fatalf("%s: ref %d = %+v, oracle %+v", path, i, got.Refs[i], want.Refs[i])
		}
	}
}
