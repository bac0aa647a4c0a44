// Package tma implements the Time-Modulated Array of §7(b): an antenna
// array whose elements are gated by periodic RF switches so that signals
// arriving from different directions are shifted ("hashed") onto different
// harmonics of the switching frequency. One mmWave chain plus an FFT
// filterbank then separates co-channel transmissions by angle — the SDM
// mechanism that lets many mmX nodes share one frequency channel.
//
// The math follows the paper's Eq. (1)–(4): each element's gating function
// w_n(t) is expanded in its Fourier series with coefficients a_mn (Eq. 3),
// and the array response at harmonic m toward direction θ is
// Σ_n a_mn·e^{j2πd·n·sinθ} (Eq. 4). For the classic sequentially-rotated
// schedule, harmonic m forms a beam toward sinθ ≈ 2m/N (half-wavelength
// spacing), so angle maps linearly onto harmonic index.
package tma

import (
	"math"
	"math/cmplx"

	"mmx/internal/dsp/pool"
)

// Schedule describes each element's periodic on-window as fractions of the
// switching period Tp: element n conducts during [On[n], On[n]+Width[n])
// modulo 1.
type Schedule struct {
	On    []float64
	Width []float64
}

// Sequential returns the canonical SDM schedule: the single-pole rotation
// in which element n conducts during the n-th slice of the period.
func Sequential(n int) Schedule {
	s := Schedule{On: make([]float64, n), Width: make([]float64, n)}
	for i := 0; i < n; i++ {
		s.On[i] = float64(i) / float64(n)
		s.Width[i] = 1 / float64(n)
	}
	return s
}

// AlwaysOn returns the degenerate schedule with every element conducting
// continuously (the TMA reduces to a plain array; only harmonic 0 exists).
func AlwaysOn(n int) Schedule {
	s := Schedule{On: make([]float64, n), Width: make([]float64, n)}
	for i := 0; i < n; i++ {
		s.Width[i] = 1
	}
	return s
}

// Gate evaluates w_n at a phase within the period (frac ∈ [0,1)).
func (s Schedule) Gate(n int, frac float64) float64 {
	frac -= math.Floor(frac)
	on := s.On[n] - math.Floor(s.On[n])
	end := on + s.Width[n]
	if frac >= on && frac < end {
		return 1
	}
	// Window may wrap past 1.
	if end > 1 && frac < end-1 {
		return 1
	}
	return 0
}

// Array is a time-modulated linear array.
type Array struct {
	// N is the element count.
	N int
	// SpacingWl is the element spacing in wavelengths (0.5 standard).
	SpacingWl float64
	// SwitchRateHz is the schedule repetition rate f_p; harmonics appear
	// at integer multiples of it.
	SwitchRateHz float64
	// Schedule gates the elements.
	Schedule Schedule
}

// NewSDMArray returns the AP's SDM front end: n elements at λ/2 with the
// sequential schedule switching at fp.
func NewSDMArray(n int, fp float64) *Array {
	return &Array{N: n, SpacingWl: 0.5, SwitchRateHz: fp, Schedule: Sequential(n)}
}

// Coefficient returns the Fourier coefficient a_mn of element n's gating
// function at harmonic m (Eq. 3), computed in closed form for the
// rectangular window: a_mn = w·sinc(m·w)·e^{−jπm(2o+w)}.
func (a *Array) Coefficient(m, n int) complex128 {
	w := a.Schedule.Width[n]
	o := a.Schedule.On[n]
	if w <= 0 {
		return 0
	}
	mag := w * sinc(float64(m)*w)
	phase := -math.Pi * float64(m) * (2*o + w)
	return cmplx.Rect(1, phase) * complex(mag, 0)
}

func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	return math.Sin(math.Pi*x) / (math.Pi * x)
}

// HarmonicGain returns the array's complex response at harmonic m toward
// azimuth theta (Eq. 4): Σ_n a_mn·e^{j2πd·n·sinθ}.
func (a *Array) HarmonicGain(m int, theta float64) complex128 {
	var g complex128
	phasePerElem := 2 * math.Pi * a.SpacingWl * math.Sin(theta)
	for n := 0; n < a.N; n++ {
		g += a.Coefficient(m, n) * cmplx.Rect(1, phasePerElem*float64(n))
	}
	return g
}

// HarmonicPattern samples |HarmonicGain(m, θ)|² in dB relative to the
// full-array response over the given azimuths.
func (a *Array) HarmonicPattern(m int, thetas []float64) []float64 {
	out := make([]float64, len(thetas))
	ref := float64(a.N) // coherent all-on response
	for i, th := range thetas {
		g := cmplx.Abs(a.HarmonicGain(m, th)) / ref
		if g <= 0 {
			out[i] = math.Inf(-1)
		} else {
			out[i] = 20 * math.Log10(g)
		}
	}
	return out
}

// MaxHarmonic is the largest |m| BestHarmonic considers; beyond ±N/2 the
// sequential schedule's harmonics alias.
func (a *Array) MaxHarmonic() int { return a.N / 2 }

// GainTable returns HarmonicGain(m, theta) for every m in
// [−MaxHarmonic, MaxHarmonic], indexed by m+MaxHarmonic. The per-element
// steering phasors are computed once and shared across all harmonics, so
// filling the whole table costs one phasor pass instead of one per
// harmonic — the building block for simnet's cached coupling matrix, where
// every co-channel pair needs gains at two harmonic indices per angle.
// Each entry is bit-identical to the corresponding HarmonicGain call.
func (a *Array) GainTable(theta float64) []complex128 {
	return a.GainTableInto(nil, theta)
}

// GainTableInto is GainTable writing into dst's storage when it has room
// for the table, so a caller refreshing one table in place allocates
// nothing.
func (a *Array) GainTableInto(dst []complex128, theta float64) []complex128 {
	maxM := a.MaxHarmonic()
	out := dst[:0]
	if cap(out) < 2*maxM+1 {
		out = make([]complex128, 2*maxM+1)
	}
	out = out[:2*maxM+1]
	phasePerElem := 2 * math.Pi * a.SpacingWl * math.Sin(theta)
	var buf [32]complex128
	phasors := buf[:0]
	if a.N > len(buf) {
		phasors = make([]complex128, a.N)
	}
	phasors = phasors[:a.N]
	for n := 0; n < a.N; n++ {
		phasors[n] = cmplx.Rect(1, phasePerElem*float64(n))
	}
	for m := -maxM; m <= maxM; m++ {
		var g complex128
		for n := 0; n < a.N; n++ {
			g += a.Coefficient(m, n) * phasors[n]
		}
		out[m+maxM] = g
	}
	return out
}

// BestHarmonic returns the harmonic index whose response toward theta is
// strongest — the frequency bin a transmitter at that angle lands in.
func (a *Array) BestHarmonic(theta float64) int {
	return a.StrongestHarmonic(a.GainTable(theta))
}

// StrongestHarmonic is BestHarmonic over an already computed GainTable:
// the harmonic index of its largest-magnitude entry (ties to the lowest).
func (a *Array) StrongestHarmonic(gt []complex128) int {
	maxM := a.MaxHarmonic()
	best, bestMag := 0, -1.0
	for m := -maxM; m <= maxM; m++ {
		if mag := cmplx.Abs(gt[m+maxM]); mag > bestMag {
			bestMag = mag
			best = m
		}
	}
	return best
}

// SidebandSuppressionDB returns how far (dB) the second-strongest harmonic
// sits below the strongest for a source at theta — the paper's "only one
// copy has significant amplitude" claim, typically 10–30 dB depending on
// angle and N.
func (a *Array) SidebandSuppressionDB(theta float64) float64 {
	best, second := -1.0, -1.0
	for m := -a.MaxHarmonic(); m <= a.MaxHarmonic(); m++ {
		mag := cmplx.Abs(a.HarmonicGain(m, theta))
		if mag > best {
			second = best
			best = mag
		} else if mag > second {
			second = mag
		}
	}
	if second <= 0 {
		return math.Inf(1)
	}
	return 20 * math.Log10(best/second)
}

// Source is one co-channel transmission arriving at the TMA.
type Source struct {
	// Theta is the angle of arrival.
	Theta float64
	// Baseband is the transmission's complex baseband stream (already at
	// the shared channel frequency).
	Baseband []complex128
}

// Mix produces the single-chain output of the TMA for a set of co-channel
// sources, sampled at fs: y[t] = Σ_i s_i[t]·Σ_n w_n(t)·e^{j2πd·n·sinθ_i}.
// The output length is the shortest source.
func (a *Array) Mix(sources []Source, fs float64) []complex128 {
	return a.MixInto(nil, sources, fs)
}

// MixInto is Mix with append-style buffer reuse: the output is written
// into dst's storage when its capacity suffices. The per-source element
// phase table lives in a pooled scratch buffer.
func (a *Array) MixInto(dst []complex128, sources []Source, fs float64) []complex128 {
	if len(sources) == 0 {
		return nil
	}
	n := len(sources[0].Baseband)
	for _, s := range sources[1:] {
		if len(s.Baseband) < n {
			n = len(s.Baseband)
		}
	}
	// Precompute per-source element phases (source i, element e at
	// phases[i*a.N+e]).
	phases := pool.Complex(len(sources) * a.N)
	for i, s := range sources {
		pe := 2 * math.Pi * a.SpacingWl * math.Sin(s.Theta)
		for e := 0; e < a.N; e++ {
			phases[i*a.N+e] = cmplx.Rect(1, pe*float64(e))
		}
	}
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	out := dst[:n]
	for t := 0; t < n; t++ {
		frac := math.Mod(float64(t)*a.SwitchRateHz/fs, 1)
		var acc complex128
		for i, s := range sources {
			var sum complex128
			for e := 0; e < a.N; e++ {
				if a.Schedule.Gate(e, frac) > 0 {
					sum += phases[i*a.N+e]
				}
			}
			acc += s.Baseband[t] * sum
		}
		out[t] = acc
	}
	pool.PutComplex(phases)
	return out
}

// Extract recovers the stream parked at harmonic m from a TMA output: it
// mixes the capture down by m·f_p and applies a boxcar integrate-and-dump
// over one switching period, the matched filter for the rectangular
// gating.
func (a *Array) Extract(y []complex128, m int, fs float64) []complex128 {
	return a.ExtractInto(nil, y, m, fs)
}

// ExtractInto is Extract with append-style buffer reuse; the mixed-down
// intermediate lives in a pooled scratch buffer. dst must not alias y.
func (a *Array) ExtractInto(dst, y []complex128, m int, fs float64) []complex128 {
	shift := -2 * math.Pi * float64(m) * a.SwitchRateHz / fs
	period := int(math.Round(fs / a.SwitchRateHz))
	if period < 1 {
		period = 1
	}
	mixed := pool.Complex(len(y))
	for t := range y {
		mixed[t] = y[t] * cmplx.Rect(1, shift*float64(t))
	}
	if cap(dst) < len(y) {
		dst = make([]complex128, len(y))
	}
	out := dst[:len(y)]
	var acc complex128
	for t := range mixed {
		acc += mixed[t]
		if t >= period {
			acc -= mixed[t-period]
		}
		den := period
		if t+1 < period {
			den = t + 1
		}
		out[t] = acc / complex(float64(den), 0)
	}
	pool.PutComplex(mixed)
	return out
}
