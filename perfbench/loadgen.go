package main

import (
	"math"
	"time"
)

// arrival is one scheduled request: when it is due after the phase
// starts, and what to send.
type arrival struct {
	due time.Duration
	req *request
}

// evenArrivals schedules reqs over an open-loop phase of span at a
// constant rate: one every span/len(reqs), each in the middle of its
// slot. An even schedule keeps the generator's own burstiness out of
// the tail; what varies with the seed is which request comes when.
func evenArrivals(span time.Duration, reqs []*request) []arrival {
	out := make([]arrival, len(reqs))
	gap := float64(span) / float64(len(reqs))
	for i, r := range reqs {
		out[i] = arrival{due: time.Duration((float64(i) + 0.5) * gap), req: r}
	}
	return out
}

// apportion splits n into whole shares proportional to w, by largest
// remainder, so the shares sum to n.
func apportion(n int, w []float64) []int {
	total := 0.0
	for _, x := range w {
		total += x
	}
	out := make([]int, len(w))
	rem := make([]float64, len(w))
	left := n
	for i, x := range w {
		exact := float64(n) * x / total
		out[i] = int(math.Floor(exact))
		rem[i] = exact - float64(out[i])
		left -= out[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		out[best]++
		rem[best] = -1
	}
	return out
}

// zipfWeights are the Zipf (s = 1) frequencies of n ranked values.
func zipfWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(i+1)
	}
	return w
}

// sample is one open-loop request's outcome. Latencies count from due,
// so a request that waited for a free connection carries that wait.
type sample struct {
	arrival
	dueAt time.Time
	lag   time.Duration // how late the generator sent it
	rep   *reply
	err   error
}

// openLoop sends each arrival when it is due, over at most conns
// requests in flight. An arrival that finds every connection busy
// waits in order and is sent late; its lag records by how much.
func openLoop(start time.Time, arrivals []arrival, conns int, send func(arrival) (*reply, error)) []sample {
	out := make([]sample, len(arrivals))
	next := make(chan int)
	done := make(chan struct{})
	for w := 0; w < conns; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range next {
				a := arrivals[i]
				dueAt := start.Add(a.due)
				if d := time.Until(dueAt); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				rep, err := send(a)
				out[i] = sample{arrival: a, dueAt: dueAt, lag: sent.Sub(dueAt), rep: rep, err: err}
			}
		}()
	}
	for i := range arrivals {
		next <- i
	}
	close(next)
	for w := 0; w < conns; w++ {
		<-done
	}
	return out
}

// backlogGrew reports whether the generator fell behind its schedule
// during the phase: the lag of the last quarter of the arrivals, at
// the median, exceeds slack.
func backlogGrew(samples []sample, slack time.Duration) bool {
	if len(samples) < 4 {
		return false
	}
	var lags []float64
	for _, s := range samples[len(samples)*3/4:] {
		lags = append(lags, ms(s.lag))
	}
	return median(lags) > ms(slack)
}
