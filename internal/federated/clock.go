package federated

import "math/rand"

// virtualClock is the engine's only time source, simulated: job durations
// come from a SpeedModel with per-client seeded jitter streams, and arrivals
// are ordered by (finish, dispatch sequence), so a run's commit schedule is a
// pure function of the seed and the speed model — never of goroutine
// scheduling, worker count or machine load. One clock serves one Server.Run.
type virtualClock struct {
	speed  *SpeedModel
	jitter []*rand.Rand
	now    float64
}

// newVirtualClock builds the clock for a run over n clients at time zero; a
// nil speed model runs every client at nominal speed.
func newVirtualClock(speed *SpeedModel, n int) *virtualClock {
	if speed == nil {
		speed = &SpeedModel{}
	}
	c := &virtualClock{speed: speed, jitter: make([]*rand.Rand, n)}
	for i := range c.jitter {
		c.jitter[i] = rand.New(rand.NewSource(speed.Seed + 7907*int64(i)))
	}
	return c
}

// stamp assigns job.finish at dispatch time; work is the job's nominal cost
// (local epochs × labeled nodes).
func (c *virtualClock) stamp(job *asyncJob, work float64) {
	job.finish = c.now + c.speed.duration(work, job.client, c.jitter[job.client])
}

// advance moves simulated time forward to t (never backward) — used by the
// fault layer to idle the server to the next scheduled event when nothing is
// in flight.
func (c *virtualClock) advance(t float64) {
	if t > c.now {
		c.now = t
	}
}

// harvest removes and returns the next-arriving job from inflight, blocking
// until that job's training has completed. Called only from the Run loop.
func (c *virtualClock) harvest(inflight *[]*asyncJob) *asyncJob {
	jobs := *inflight
	best := 0
	for i, job := range jobs[1:] {
		if job.finish < jobs[best].finish ||
			(job.finish == jobs[best].finish && job.seq < jobs[best].seq) {
			best = i + 1
		}
	}
	job := jobs[best]
	*inflight = append(jobs[:best], jobs[best+1:]...)
	<-job.done
	c.now = job.finish
	return job
}
