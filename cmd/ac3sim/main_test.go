package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden pins ac3sim's stdout per protocol and fault schedule at
// the default seed: testdata/<protocol>[-crash[-recover]].golden is what
// the command printed before its protocol construction, crash trigger
// and run-out tail moved behind shared code, so those moves are
// checked to be byte-invisible.
func TestGolden(t *testing.T) {
	for _, proto := range []string{"ac3wn", "ac3tw", "htlc"} {
		for _, faults := range []string{"", "-crash", "-crash -recover"} {
			name := proto + strings.ReplaceAll(faults, " ", "")
			t.Run(name, func(t *testing.T) {
				want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				var stdout, stderr bytes.Buffer
				args := append([]string{"-protocol", proto}, strings.Fields(faults)...)
				if rc := run(args, &stdout, &stderr); rc != 0 {
					t.Fatalf("exit %d: %s", rc, stderr.String())
				}
				if !bytes.Equal(stdout.Bytes(), want) {
					t.Errorf("stdout differs from testdata/%s.golden:\n%s", name, stdout.String())
				}
			})
		}
	}
}

// TestUsageErrors: a flag combination that asks for nothing runnable is
// exit 2 with the reason on stderr and nothing on stdout.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-recover", "needs -crash"},
		{"-parties 1", "at least 2 parties"},
		{"-nosuchflag", "not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if rc := run(strings.Fields(tc.args), &stdout, &stderr); rc != 2 {
			t.Errorf("ac3sim %s: exit %d, want 2", tc.args, rc)
		}
		if !strings.Contains(stderr.String(), tc.want) || stdout.Len() != 0 {
			t.Errorf("ac3sim %s: stderr %q (want %q), stdout %q (want none)", tc.args, stderr.String(), tc.want, stdout.String())
		}
	}
}
