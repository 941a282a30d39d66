//! CPU clocks and the host-speed reference that the timed metrics are
//! scaled by.
//!
//! The benchmark runs on shared hosts whose speed per CPU second drifts
//! by 30–40 % over seconds to minutes, as other tenants come and go.
//! Wall time moves with that and with the time slices other tenants
//! take; CPU time (what the kernel charges this process) leaves out the
//! time slices but not the slower clock. So every timed sample is
//! bracketed by [`Calibration::sample`]s, a fixed kernel of the
//! benchmark's own that touches nothing of the program under test, and
//! its CPU seconds are rescaled to *reference CPU seconds*: what they
//! would have been on a host running that kernel at
//! [`REF_STEPS_PER_S`].

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CPU time through 64-bit Linux's clock_gettime");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` of Linux.
const PROCESS_CPUTIME: i32 = 2;
const THREAD_CPUTIME: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time of this process so far (user + system, all threads, exited
/// ones included), seconds. Time the host gives to other tenants is not
/// in it: the kernel counts neither run-queue waits nor hypervisor steal.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(PROCESS_CPUTIME)
}

/// CPU time of the calling thread so far, seconds.
fn thread_cpu_s() -> f64 {
    cpu_clock_s(THREAD_CPUTIME)
}

/// Wall and process CPU time elapsed since it was started.
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: std::time::Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.cpu_s
    }
}

/// Steps per CPU second of the calibration kernel on the reference
/// host: the 2-vCPU 2.1 GHz Xeon VM the benchmark was written on, in its
/// fast state (it drifts between about 0.7 and 1.0 of this).
pub const REF_STEPS_PER_S: f64 = 2.0e9;

/// Steps of one calibration sample: about 50 ms at the reference speed.
const STEPS: u64 = 100_000_000;

/// The calibration kernel, timed in the calling thread's CPU time: eight
/// interleaved chains of dependent multiply-adds. It needs no memory, so
/// it reads the core's clock and the share of the core the host leaves
/// this thread, which is what drifts.
fn kernel_steps_per_s() -> f64 {
    let t = thread_cpu_s();
    let mut lanes = [1.0f64; 8];
    for i in 0..STEPS {
        let k = (i % 8) as usize;
        lanes[k] = lanes[k] * 0.999_999 + 1e-7;
    }
    std::hint::black_box(lanes);
    STEPS as f64 / (thread_cpu_s() - t)
}

/// How many cores a workload keeps busy, and so where its calibration
/// runs. The host's cores drift apart (at one moment one may run at 0.95
/// of the reference and the other at 0.7), so the kernel must run where
/// the work does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cores {
    /// The work runs on the calling thread: calibrate on it, on the core
    /// the scheduler keeps it on.
    Caller,
    /// The work keeps every core busy: calibrate on one thread per core,
    /// all at once.
    All,
}

/// The host's speed factors over one run: one sample before each timed
/// sample and one after the last, so every timed sample is bracketed by
/// two. Above 1 the host runs faster than the reference.
pub struct Calibration {
    cores: Cores,
    speeds: Vec<f64>,
}

impl Calibration {
    pub fn new(cores: Cores) -> Self {
        Calibration {
            cores,
            speeds: Vec::new(),
        }
    }

    /// Runs the calibration kernel where the work runs and records the
    /// host's speed factor: the mean of the kernel's rates over the
    /// reference rate. Call it between timed samples, while the program
    /// under test is idle.
    pub fn sample(&mut self) {
        let rates: Vec<f64> = match self.cores {
            Cores::Caller => vec![kernel_steps_per_s()],
            Cores::All => {
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                std::thread::scope(|scope| {
                    let threads: Vec<_> = (0..cores)
                        .map(|_| scope.spawn(kernel_steps_per_s))
                        .collect();
                    threads
                        .into_iter()
                        .map(|t| t.join().expect("calibration thread"))
                        .collect()
                })
            }
        };
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        self.speeds.push(mean / REF_STEPS_PER_S);
    }

    pub fn samples(&self) -> &[f64] {
        &self.speeds
    }

    /// Timed samples' CPU seconds as reference CPU seconds (see
    /// [`to_reference_s`]).
    pub fn to_reference_s(&self, cpu_s: &[f64]) -> Vec<f64> {
        to_reference_s(cpu_s, &self.speeds)
    }
}

/// CPU seconds of timed samples as reference CPU seconds: sample `i`
/// is scaled by the mean of the speed factors taken just before and
/// just after it, `speeds[i]` and `speeds[i + 1]`, so a host that
/// changes speed in the middle of a run is followed sample by sample.
pub fn to_reference_s(cpu_s: &[f64], speeds: &[f64]) -> Vec<f64> {
    assert_eq!(
        speeds.len(),
        cpu_s.len() + 1,
        "one speed factor before each timed sample and one after the last"
    );
    cpu_s
        .iter()
        .zip(speeds.windows(2))
        .map(|(cpu, w)| cpu * (w[0] + w[1]) / 2.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_sample_is_scaled_by_the_speeds_that_bracket_it() {
        // The host halves its speed after the first sample.
        let reference = to_reference_s(&[1.0, 2.0, 4.0], &[1.0, 1.0, 0.5, 0.5]);
        assert_eq!(reference, vec![1.0, 1.5, 2.0]);
        assert!(to_reference_s(&[], &[0.8]).is_empty());
    }

    #[test]
    #[should_panic(expected = "one speed factor before each timed sample")]
    fn a_sample_without_a_closing_speed_is_refused() {
        to_reference_s(&[1.0, 2.0], &[1.0, 1.0]);
    }

    #[test]
    fn process_cpu_time_counts_work_on_other_threads() {
        let t = Stopwatch::start();
        std::thread::spawn(|| {
            let start = std::time::Instant::now();
            while start.elapsed().as_millis() < 50 {
                std::hint::black_box(0u64);
            }
        })
        .join()
        .unwrap();
        // Other tests run on other threads meanwhile, so only the lower
        // bound is exact: the spinning thread's time is in it.
        let cpu = t.cpu_s();
        assert!(cpu >= 0.02, "{cpu}");
    }

    #[test]
    fn calibration_records_a_positive_speed_per_sample() {
        let mut c = Calibration::new(Cores::All);
        c.sample();
        c.sample();
        c.cores = Cores::Caller;
        c.sample();
        assert_eq!(c.samples().len(), 3);
        assert!(c.samples().iter().all(|s| *s > 0.0 && s.is_finite()));
        assert_eq!(
            c.to_reference_s(&[3.0, 1.0])[..1],
            [3.0 * (c.samples()[0] + c.samples()[1]) / 2.0]
        );
    }
}
