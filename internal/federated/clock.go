package federated

import (
	"math/rand"
	"time"
)

// Clock is the duration source ordering client-update arrivals for
// Server. The default (nil AsyncOptions.Clock) is the seeded virtual
// clock driven by AsyncOptions.Speed, under which a run's commit schedule is
// a pure function of the seed and the speed model — bit-reproducible for any
// worker count. NewWallClock swaps in real elapsed time so the engine
// orders arrivals by actual training completion, the behaviour a wall-clock
// deployment needs (and which is, by nature, not reproducible).
//
// A Clock is stateful across one Server.Run and is reset at the start of
// each run; it must not be shared by concurrent runs. The interface is
// intentionally sealed (unexported methods): the two implementations in this
// package cover the simulation/deployment split.
type Clock interface {
	// reset prepares the clock for a run over n clients.
	reset(n int)
	// stamp assigns job.finish at dispatch time for clocks that know the
	// duration up front (the virtual clock); work is the job's nominal cost
	// (local epochs × labeled nodes). Wall clocks leave the stamp to harvest.
	stamp(job *asyncJob, work float64)
	// completed signals that a job's training goroutine has finished (its
	// done channel is already closed). Called from worker goroutines.
	completed(job *asyncJob)
	// harvest removes and returns the next-arriving job from inflight,
	// blocking until that job's training has completed and setting its final
	// finish stamp. Called only from the Run loop.
	harvest(inflight *[]*asyncJob) *asyncJob
}

// virtualClock is the default simulated-time source: job durations come from
// a SpeedModel with per-client seeded jitter streams, and arrivals are
// ordered by (finish, dispatch sequence) so the schedule never depends on
// goroutine scheduling.
type virtualClock struct {
	speed  *SpeedModel
	jitter []*rand.Rand
	now    float64
}

// newVirtualClock builds the seeded default clock; a nil speed model runs
// every client at nominal speed.
func newVirtualClock(speed *SpeedModel) *virtualClock {
	if speed == nil {
		speed = &SpeedModel{}
	}
	return &virtualClock{speed: speed}
}

func (c *virtualClock) reset(n int) {
	c.now = 0
	c.jitter = make([]*rand.Rand, n)
	for i := range c.jitter {
		c.jitter[i] = rand.New(rand.NewSource(c.speed.Seed + 7907*int64(i)))
	}
}

func (c *virtualClock) stamp(job *asyncJob, work float64) {
	job.finish = c.now + c.speed.duration(work, job.client, c.jitter[job.client])
}

func (c *virtualClock) completed(job *asyncJob) {}

// advance moves simulated time forward to t (never backward) — used by the
// fault layer to idle the server to the next scheduled event when nothing is
// in flight.
func (c *virtualClock) advance(t float64) {
	if t > c.now {
		c.now = t
	}
}

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

// wallClock orders arrivals by real elapsed time: a job "arrives" when its
// training goroutine actually finishes, and its finish stamp (and therefore
// Result.RoundTime) is seconds since the run started. Schedules depend on
// machine load and worker count, so wall-clock runs are not reproducible —
// that is the point: this is the duration source for real deployments, while
// the virtual clock remains the default for simulation and tests.
type wallClock struct {
	epoch    time.Time
	arrivals chan *asyncJob
	now      float64 // latest harvested finish, keeps the timeline monotone
}

// NewWallClock returns a Clock that measures real elapsed time, for running
// the engine in wall-clock deployments instead of simulation.
// Select it via AsyncOptions.Clock. RoundTime entries become seconds since
// the run started. Do not reuse one wall clock across concurrent runs.
func NewWallClock() Clock { return &wallClock{} }

func (c *wallClock) reset(n int) {
	c.epoch = time.Now()
	c.now = 0
	// Each client has at most one job in flight, so n buffers every possible
	// unharvested completion (including stragglers past the final commit).
	c.arrivals = make(chan *asyncJob, n)
}

func (c *wallClock) stamp(job *asyncJob, work float64) { job.finish = -1 }

// completed stamps the job with its actual completion time — not harvest
// time, which would absorb server-side aggregation delay — and announces it.
// The write is safe: it happens-before the channel send harvest receives.
func (c *wallClock) completed(job *asyncJob) {
	job.finish = time.Since(c.epoch).Seconds()
	c.arrivals <- job
}

func (c *wallClock) harvest(inflight *[]*asyncJob) *asyncJob {
	job := <-c.arrivals
	// Stamping (in completed) and sending are not one atomic step across
	// worker goroutines, so arrivals can be received fractionally out of
	// stamp order; clamp to keep the committed timeline monotone.
	if job.finish < c.now {
		job.finish = c.now
	}
	c.now = job.finish
	jobs := *inflight
	for i, j := range jobs {
		if j == job {
			*inflight = append(jobs[:i], jobs[i+1:]...)
			break
		}
	}
	<-job.done
	return job
}
