package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/trace"
)

// TestExploreTraceJSON checks `explore -trace-json` writes a span tree
// equivalent to a server job's: an "explore" root with the engine phases
// (strip, postlude) as children, no conflict-table phase, and per-level
// spans below the postlude.
func TestExploreTraceJSON(t *testing.T) {
	dir := t.TempDir()
	tr := trace.New(0)
	for rep := 0; rep < 50; rep++ {
		for i := uint32(0); i < 40; i++ {
			tr.Append(trace.Ref{Addr: i * 7, Kind: trace.DataRead})
		}
	}
	path := filepath.Join(dir, "t.din")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	out := filepath.Join(dir, "trace.json")
	if err := cmdExplore([]string{"-k", "10", "-trace-json", out, "-log-format", "json", path}); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Trace   string      `json:"trace"`
		Spans   []*obs.Node `json:"spans"`
		Dropped int         `json:"dropped"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("trace-json output is not valid JSON: %v\n%s", err, data)
	}
	if dump.Trace != path {
		t.Errorf("trace field = %q, want %q", dump.Trace, path)
	}
	if len(dump.Spans) != 1 || dump.Spans[0].Name != "explore" {
		t.Fatalf("roots = %+v, want a single explore root", dump.Spans)
	}
	root := dump.Spans[0]
	children := map[string]*obs.Node{}
	for _, c := range root.Children {
		children[c.Name] = c
	}
	for _, want := range []string{"strip", "postlude"} {
		if children[want] == nil {
			t.Errorf("explore root missing %q child: %+v", want, root.Children)
		}
	}
	if children["mrct"] != nil {
		t.Errorf("exact explore built a conflict table: %+v", root.Children)
	}
	if post := children["postlude"]; post != nil {
		if len(post.Children) == 0 {
			t.Error("postlude has no level children")
		}
		for _, lv := range post.Children {
			if lv.Name != "level" {
				t.Errorf("postlude child %q, want level", lv.Name)
			}
		}
	}
	for _, attr := range []string{"n", "n_unique"} {
		if _, ok := root.Attrs[attr]; !ok {
			t.Errorf("explore root missing attr %q: %v", attr, root.Attrs)
		}
	}
}

// TestExploreBadLogFormat checks the flag validation fails fast.
func TestExploreBadLogFormat(t *testing.T) {
	if err := cmdExplore([]string{"-k", "1", "-log-format", "yaml", "nonexistent.din"}); err == nil {
		t.Fatal("bad -log-format accepted")
	}
}
