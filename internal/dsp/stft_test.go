package dsp

import (
	"math"
	"testing"
)

func TestWindowCoefficients(t *testing.T) {
	for _, w := range []Window{Hann, Hamming, Blackman} {
		c := w.Coefficients(64)
		if len(c) != 64 {
			t.Fatalf("window %d: %d coefficients", w, len(c))
		}
		for i, v := range c {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("window %d coefficient %d out of [0,1]: %v", w, i, v)
			}
		}
	}
	// Hann endpoints are zero; Hamming endpoints are 0.08.
	h := Hann.Coefficients(33)
	if math.Abs(h[0]) > 1e-12 || math.Abs(h[32]) > 1e-12 {
		t.Fatal("Hann endpoints not zero")
	}
	hm := Hamming.Coefficients(33)
	if math.Abs(hm[0]-0.08) > 1e-12 {
		t.Fatalf("Hamming endpoint = %v, want 0.08", hm[0])
	}
	// Symmetry.
	for i := 0; i < 16; i++ {
		if math.Abs(h[i]-h[32-i]) > 1e-12 {
			t.Fatal("Hann window not symmetric")
		}
	}
}

func TestSTFTFrameCountAndShape(t *testing.T) {
	x := make([]complex128, 1000)
	s := STFT(x, 128, 64, Hann, 1e6)
	wantFrames := (1000-128)/64 + 1
	if len(s.PowerDB) != wantFrames {
		t.Fatalf("frames = %d, want %d", len(s.PowerDB), wantFrames)
	}
	for _, row := range s.PowerDB {
		if len(row) != 128 {
			t.Fatalf("row width %d, want 128", len(row))
		}
	}
	if s.BinHz != 1e6/128 {
		t.Fatalf("BinHz = %v", s.BinHz)
	}
	if s.FrameDur != 64/1e6 {
		t.Fatalf("FrameDur = %v", s.FrameDur)
	}
}

func TestSTFTLocalizesTone(t *testing.T) {
	const fs = 1e6
	const freq = 250e3
	x := tone(freq, fs, 4096)
	s := STFT(x, 256, 256, Hann, fs)
	// Peak bin after fftshift: center + freq/binHz
	for ti, row := range s.PowerDB {
		best, bestVal := 0, math.Inf(-1)
		for i, p := range row {
			if p > bestVal {
				best, bestVal = i, p
			}
		}
		want := 128 + int(freq/s.BinHz)
		if best != want {
			t.Fatalf("frame %d: peak at bin %d, want %d", ti, best, want)
		}
	}
}

func TestSTFTNegativeFrequencyPlacement(t *testing.T) {
	const fs = 1e6
	x := tone(-125e3, fs, 2048)
	s := STFT(x, 256, 256, Hann, fs)
	row := s.PowerDB[0]
	best, bestVal := 0, math.Inf(-1)
	for i, p := range row {
		if p > bestVal {
			best, bestVal = i, p
		}
	}
	want := 128 - int(125e3/s.BinHz)
	if best != want {
		t.Fatalf("negative tone at bin %d, want %d", best, want)
	}
}

func TestOccupiedFraction(t *testing.T) {
	const fs = 1e6
	// Half the time a strong tone, half silence.
	x := append(tone(100e3, fs, 1024), make([]complex128, 1024)...)
	s := STFT(x, 128, 128, Hann, fs)
	occ := s.OccupiedFraction(-60)
	half := len(occ) / 2
	for i := 0; i < half; i++ {
		if occ[i] == 0 {
			t.Fatalf("active frame %d reported empty", i)
		}
	}
	for i := half; i < len(occ); i++ {
		if occ[i] != 0 {
			t.Fatalf("silent frame %d reported occupancy %v", i, occ[i])
		}
	}
}

func TestSTFTPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("STFT with hop 0 did not panic")
		}
	}()
	STFT(make([]complex128, 100), 64, 0, Hann, 1)
}
