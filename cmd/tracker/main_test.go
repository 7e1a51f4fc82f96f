package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPlaylistGolden pins the report lines of a two-entry playlist per
// format, as the separate MediaTracker and RealTracker commands printed
// them before they became this one command.
func TestPlaylistGolden(t *testing.T) {
	cases := []struct {
		playlist string
		want     string
	}{
		{"5/M-l,1/M-h", `MediaTracker 5/M-l: enc=39.0Kbps bw=40.8Kbps fps=12.9 recv=578 lost=2 recovered=0 startup=5.114716131s
  startup=5.114716131s playFrames=1385/1391 loss=0.34%
MediaTracker 1/M-h: enc=323.1Kbps bw=322.7Kbps fps=24.8 recv=1196 lost=6 recovered=0 startup=5.2217822s
  startup=5.2217822s playFrames=2979/3000 loss=0.50%
`},
		{"5/R-l,1/R-h", `RealTracker 5/R-l: enc=22.0Kbps bw=34.1Kbps fps=19.0 recv=556 lost=0 recovered=2 startup=2.093134882s
  startup=2.093134882s playFrames=2033/2033 recovered=2 loss=0.00%
RealTracker 1/R-h: enc=284.0Kbps bw=392.5Kbps fps=25.0 recv=6107 lost=0 recovered=12 startup=3.797033198s
  startup=3.797033198s playFrames=3000/3000 recovered=12 loss=0.00%
`},
	}
	for _, tc := range cases {
		t.Run(tc.playlist, func(t *testing.T) {
			var out strings.Builder
			if err := run(&out, 1, strings.Split(tc.playlist, ","), ""); err != nil {
				t.Fatal(err)
			}
			if out.String() != tc.want {
				t.Fatalf("output:\n%s\nwant:\n%s", out.String(), tc.want)
			}
		})
	}
}

// TestMixedPlaylistSequential plays one clip of each format on one
// testbed: both complete, in playlist order, the second starting only
// after the first finished.
func TestMixedPlaylistSequential(t *testing.T) {
	reports, err := runPlaylist(1, []string{"5/M-l", " 5/R-l"})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].Tool != "MediaTracker" || reports[1].Tool != "RealTracker" {
		t.Fatalf("reports: %v", reports)
	}
	for _, r := range reports {
		if !r.Completed || r.FramesPlayed == 0 {
			t.Fatalf("entry did not play: %v", r)
		}
	}
	if reports[1].StartedAt < reports[0].FinishedAt {
		t.Fatal("playlist entries overlapped")
	}
}

func TestUnknownClipIsError(t *testing.T) {
	var out strings.Builder
	err := run(&out, 1, []string{"5/M-l", "9/X-q"}, "")
	if err == nil || !strings.Contains(err.Error(), `"9/X-q"`) {
		t.Fatalf("err = %v, want an unknown-clip error naming the reference", err)
	}
	if out.Len() != 0 {
		t.Fatalf("printed before failing:\n%s", out.String())
	}
}

func TestCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	var out strings.Builder
	if err := run(&out, 1, []string{"5/R-l"}, path); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out.String(), "wrote "+path+"\n") {
		t.Fatalf("output:\n%s", out.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "# RealTracker 5/R-l") {
		t.Fatalf("csv starts %q", string(b)[:40])
	}
}
