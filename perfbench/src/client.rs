//! The closed-loop load generator: one thread, two connections.
//!
//! SUBMITs go out pipelined through `GatewayClient::submit_batch` on the
//! first connection. In-flight tickets are polled on the second: one
//! write carries a STATUS frame per ticket, then the replies are read
//! back in order. A task's latency runs from the first write of its
//! SUBMIT to the first STATUS reply that shows a terminal phase; a Busy
//! reply is retried after its hint with the clock still running.

use crate::layers::ClientSide;
use crate::trace::{Span, Tracer};
use crate::workload::{self, Class, Def, Job, Rng};
use occam::gateway::proto::{read_frame, write_frame};
use occam::gateway::{GatewayClient, Request, Response, SubmitReply, WirePhase};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One finished task as the client saw it.
pub struct Done {
    pub class: Class,
    pub latency_ns: u64,
    pub phase: WirePhase,
    pub workflow: String,
}

/// Outcome counts of everything submitted.
#[derive(Default, Clone)]
pub struct Tally {
    pub submitted: u64,
    pub completed: u64,
    pub aborted: u64,
    pub cancelled: u64,
    pub rejected: u64,
    pub lost: u64,
    pub busy: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.aborted + self.cancelled + self.rejected + self.lost
    }
}

struct InFlight {
    ticket: u64,
    job: Job,
    first_write: Instant,
}

struct Backoff {
    job: Job,
    first_write: Instant,
    due: Instant,
}

/// The generator's state across windows of one run.
pub struct Loader {
    def: Def,
    rng: Rng,
    serial: u64,
    submit: GatewayClient,
    status: TcpStream,
    tracer: Arc<Tracer>,
    inflight: Vec<InFlight>,
    backoff: Vec<Backoff>,
    /// Undrains released by completed drains, submitted next.
    followups: VecDeque<Job>,
    pub done: Vec<Done>,
    pub tally: Tally,
    pub client: ClientSide,
    /// Last planned update completed per dc01 pod: (generation, firmware).
    pub rollout: BTreeMap<u32, (String, String)>,
    pub polls: u64,
}

impl Loader {
    pub fn connect(def: Def, seed: u64, addr: &str, tracer: Arc<Tracer>) -> Loader {
        let submit = GatewayClient::connect(addr).expect("connect submit channel");
        let status = TcpStream::connect(addr).expect("connect status channel");
        status.set_nodelay(true).expect("nodelay");
        Loader {
            def,
            rng: Rng::new(seed),
            serial: 0,
            submit,
            status,
            tracer,
            inflight: Vec::new(),
            backoff: Vec::new(),
            followups: VecDeque::new(),
            done: Vec::new(),
            tally: Tally::default(),
            client: ClientSide::default(),
            rollout: BTreeMap::new(),
            polls: 0,
        }
    }

    fn busy_pods(&self) -> Vec<u32> {
        self.inflight
            .iter()
            .filter_map(|f| f.job.pod)
            .chain(self.backoff.iter().filter_map(|b| b.job.pod))
            .collect()
    }

    fn load(&self) -> usize {
        self.inflight.len() + self.backoff.len()
    }

    /// Runs the closed loop for `dur`; with `open == false` it only
    /// drains what is already in flight (and pending undrains).
    /// Returns the wall time spent and the tasks finished in it.
    pub fn run(&mut self, dur: Duration, open: bool) -> (Duration, u64) {
        let started = Instant::now();
        let deadline = started + dur;
        let done_before = self.done.len();
        loop {
            let now = Instant::now();
            let submitting = open && now < deadline;
            if !submitting && self.load() == 0 && self.followups.is_empty() {
                break;
            }
            let mut batch: Vec<(Job, Instant)> = Vec::new();
            // Busy retries whose hint has passed keep their first write.
            let mut i = 0;
            while i < self.backoff.len() {
                if self.backoff[i].due <= now {
                    let b = self.backoff.swap_remove(i);
                    batch.push((b.job, b.first_write));
                } else {
                    i += 1;
                }
            }
            let free = self.def.window.saturating_sub(self.load() + batch.len());
            let mut fresh = Vec::new();
            for _ in 0..free {
                let job = if let Some(f) = self.followups.pop_front() {
                    f
                } else if submitting {
                    self.serial += 1;
                    let mut busy = self.busy_pods();
                    busy.extend(fresh.iter().filter_map(|j: &Job| j.pod));
                    workload::next(self.def.kind, &mut self.rng, self.serial, &busy)
                } else {
                    break;
                };
                fresh.push(job);
            }
            if !batch.is_empty() || !fresh.is_empty() {
                let t = Instant::now();
                batch.extend(fresh.into_iter().map(|j| (j, t)));
                self.submit_batch(batch);
            }
            if self.inflight.is_empty() {
                if let Some(due) = self.backoff.iter().map(|b| b.due).min() {
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                }
                continue;
            }
            if self.poll() == 0 {
                std::thread::sleep(self.def.poll);
            }
        }
        (started.elapsed(), (self.done.len() - done_before) as u64)
    }

    fn submit_batch(&mut self, batch: Vec<(Job, Instant)>) {
        let specs: Vec<_> = batch.iter().map(|(j, _)| j.spec.clone()).collect();
        let t0 = Instant::now();
        let replies = self.submit.submit_batch(&specs).expect("SUBMIT batch");
        let t1 = Instant::now();
        let traced = self.tracer.enabled();
        if traced {
            self.client.submit_batches += 1;
            self.client.submit_rtt_ns += (t1 - t0).as_nanos() as u64;
            self.client.submit_replies += replies.len() as u64;
            self.tracer.record(Span {
                kind: "submit_batch",
                ticket: 0,
                parent: replies.len() as u64,
                start_ns: self.tracer.ns(t0),
                end_ns: self.tracer.ns(t1),
                label: String::new(),
            });
        }
        for ((job, first_write), reply) in batch.into_iter().zip(replies) {
            match reply {
                SubmitReply::Accepted(ticket) => {
                    self.tally.submitted += 1;
                    self.inflight.push(InFlight {
                        ticket,
                        job,
                        first_write,
                    });
                }
                SubmitReply::Busy(ms) => {
                    self.tally.busy += 1;
                    if traced {
                        self.client.busy_replies += 1;
                    }
                    self.backoff.push(Backoff {
                        job,
                        first_write,
                        due: t1 + Duration::from_millis(ms),
                    });
                }
                SubmitReply::Rejected(code, msg) => {
                    self.tally.submitted += 1;
                    self.tally.rejected += 1;
                    eprintln!(
                        "rejected {} {}: {code:?} {msg}",
                        job.spec.workflow, job.spec.scope
                    );
                }
            }
        }
    }

    /// One pipelined STATUS round over every in-flight ticket; returns
    /// how many reached a terminal phase.
    fn poll(&mut self) -> usize {
        self.polls += 1;
        let mut wire = Vec::with_capacity(self.inflight.len() * 16);
        for f in &self.inflight {
            write_frame(&mut wire, &Request::Status { ticket: f.ticket }.encode())
                .expect("encode STATUS");
        }
        let t0 = Instant::now();
        self.status.write_all(&wire).expect("write STATUS round");
        let mut finished = Vec::new();
        for (idx, f) in self.inflight.iter().enumerate() {
            let body = read_frame(&mut self.status).expect("read STATUS reply");
            let seen = Instant::now();
            match Response::decode(&body).expect("decode STATUS reply") {
                Response::Status {
                    ticket,
                    phase,
                    detail,
                } => {
                    assert_eq!(ticket, f.ticket, "STATUS replies out of order");
                    if phase.is_terminal() || phase == WirePhase::Unknown {
                        finished.push((idx, phase, detail, seen));
                    }
                }
                other => panic!("unexpected reply to STATUS: {other:?}"),
            }
        }
        let t1 = Instant::now();
        let traced = self.tracer.enabled();
        if traced {
            self.client.status_rounds += 1;
            self.client.status_rtt_ns += (t1 - t0).as_nanos() as u64;
            self.tracer.record(Span {
                kind: "status_round",
                ticket: 0,
                parent: self.inflight.len() as u64,
                start_ns: self.tracer.ns(t0),
                end_ns: self.tracer.ns(t1),
                label: String::new(),
            });
        }
        let n = finished.len();
        for (idx, phase, detail, seen) in finished.into_iter().rev() {
            let f = self.inflight.swap_remove(idx);
            match phase {
                WirePhase::Completed => self.tally.completed += 1,
                WirePhase::Aborted => self.tally.aborted += 1,
                WirePhase::Cancelled => self.tally.cancelled += 1,
                _ => self.tally.lost += 1,
            }
            if phase != WirePhase::Completed {
                eprintln!(
                    "task {} {} {}: {phase:?} {detail}",
                    f.ticket, f.job.spec.workflow, f.job.spec.scope
                );
            }
            if phase == WirePhase::Completed && f.job.pair_drain {
                self.followups
                    .push_back(workload::undrain(&f.job.spec.scope));
            }
            if let (WirePhase::Completed, Some(pod)) = (phase, f.job.pod) {
                let param = |k: &str| {
                    f.job
                        .spec
                        .params
                        .iter()
                        .find(|(n, _)| n == k)
                        .map(|(_, v)| v.clone())
                        .unwrap_or_default()
                };
                self.rollout
                    .insert(pod, (param("generation"), param("firmware")));
            }
            if traced {
                self.client.tasks += 1;
                if f.job.pod.is_some() {
                    self.client.update_tasks += 1;
                }
                self.tracer.record(Span {
                    kind: "task",
                    ticket: f.ticket,
                    parent: 0,
                    start_ns: self.tracer.ns(f.first_write),
                    end_ns: self.tracer.ns(seen),
                    label: f.job.spec.workflow.clone(),
                });
            }
            self.done.push(Done {
                class: f.job.class,
                latency_ns: (seen - f.first_write).as_nanos() as u64,
                phase,
                workflow: f.job.spec.workflow,
            });
        }
        n
    }
}
