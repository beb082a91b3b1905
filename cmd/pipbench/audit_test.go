package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/dessertlab/patchitpy/internal/diag"
	"github.com/dessertlab/patchitpy/internal/diag/sarif"
)

func TestSarifLiveSkipsSuppressed(t *testing.T) {
	files := []diag.FileFindings{
		{File: "a.py", Findings: []diag.Finding{
			{Tool: "PatchitPy", RuleID: "PIP-INJ-003", Line: 2, Message: "m"},
			{Tool: "PatchitPy", RuleID: "PIP-INJ-001", Line: 5, Message: "m", Suppressed: true, SuppressReason: "taint:clean"},
		}},
		{File: "b.py", Findings: []diag.Finding{
			{Tool: "PatchitPy", RuleID: "PIP-INJ-001", Line: 1, Message: "m", Suppressed: true, SuppressReason: "taint:clean"},
		}},
		{File: "c.py"},
	}
	var buf bytes.Buffer
	if err := sarif.Write(&buf, files); err != nil {
		t.Fatal(err)
	}
	inputs := map[string]bool{"a.py": true, "b.py": true, "c.py": true}
	live, err := sarifLive(buf.Bytes(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 1 || live["a.py"] != "PIP-INJ-003" {
		t.Fatalf("live results %v, want only a.py: PIP-INJ-003", live)
	}
	if err := checkAudit(buf.Bytes(), inputs, liveRules{"a.py": "PIP-INJ-003"}); err != nil {
		t.Fatalf("matching reference rejected: %v", err)
	}
	if err := checkAudit(buf.Bytes(), inputs, liveRules{"a.py": "PIP-INJ-003", "b.py": "PIP-INJ-001"}); err == nil {
		t.Fatal("a suppressed result counted as live")
	}

	delete(inputs, "b.py")
	if _, err := sarifLive(buf.Bytes(), inputs); err == nil || !strings.Contains(err.Error(), "b.py") {
		t.Fatalf("result for a file outside the input set accepted (err %v)", err)
	}
	if _, err := sarifLive(buf.Bytes()[:buf.Len()/2], inputs); err == nil {
		t.Fatal("truncated SARIF accepted")
	}
}
