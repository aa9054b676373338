//! Event channels: Xen's virtual-interrupt primitive. The split driver
//! signals "request produced" / "response produced" over an interdomain
//! channel; workers block on their local port.
//!
//! The simulator implements the three-step Xen dance: the backend
//! allocates an *unbound* port naming the peer, the peer *binds* to it to
//! complete the interdomain pair, and thereafter `notify` on either end
//! raises the pending flag on the other end. Each port has its own
//! condvar, so a notify wakes only the thread blocked on the remote port
//! (Xen upcalls only the vCPU bound to the signalled port) and the
//! multi-threaded vTPM manager can block without spinning.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::domain::DomainId;
use crate::error::{Result, XenError};

/// A port number, local to a domain.
pub type Port = u32;

/// One end of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// Owning domain.
    pub domain: DomainId,
    /// Port within that domain.
    pub port: Port,
}

#[derive(Debug)]
enum ChannelState {
    /// Allocated by `owner` for `peer` to bind to.
    Unbound { peer: DomainId },
    /// Fully connected to the remote endpoint.
    Bound { remote: Endpoint },
    /// Torn down.
    Closed,
}

struct PortRecord {
    state: ChannelState,
    pending: bool,
    /// Signalled (under the table mutex) when this port's pending flag or
    /// state changes; only threads waiting on this port block on it.
    waiter: Arc<Condvar>,
}

impl PortRecord {
    fn new(state: ChannelState) -> Self {
        PortRecord { state, pending: false, waiter: Arc::default() }
    }
}

#[derive(Default)]
struct Inner {
    ports: HashMap<Endpoint, PortRecord>,
    next_port: HashMap<DomainId, Port>,
}

/// The host-wide event-channel table. Clone-able handle (Arc inside).
#[derive(Clone, Default)]
pub struct EventChannels {
    inner: Arc<Mutex<Inner>>,
}

impl EventChannels {
    /// Fresh table.
    pub fn new() -> Self {
        Self::default()
    }

    fn alloc_port(inner: &mut Inner, domain: DomainId) -> Endpoint {
        let counter = inner.next_port.entry(domain).or_insert(1);
        let port = *counter;
        *counter += 1;
        Endpoint { domain, port }
    }

    /// Allocate an unbound port on `owner` that only `peer` may bind.
    pub fn alloc_unbound(&self, owner: DomainId, peer: DomainId) -> Endpoint {
        let mut inner = self.inner.lock();
        let ep = Self::alloc_port(&mut inner, owner);
        inner.ports.insert(ep, PortRecord::new(ChannelState::Unbound { peer }));
        ep
    }

    /// `binder` connects a new local port to the remote unbound port,
    /// completing the interdomain channel. Returns the local endpoint.
    pub fn bind_interdomain(&self, binder: DomainId, remote: Endpoint) -> Result<Endpoint> {
        let mut inner = self.inner.lock();
        match inner.ports.get(&remote) {
            Some(PortRecord { state: ChannelState::Unbound { peer }, .. }) if *peer == binder => {}
            _ => return Err(XenError::BadPort),
        }
        let local = Self::alloc_port(&mut inner, binder);
        inner.ports.insert(local, PortRecord::new(ChannelState::Bound { remote }));
        let rec = inner.ports.get_mut(&remote).expect("checked above");
        rec.state = ChannelState::Bound { remote: local };
        Ok(local)
    }

    /// Raise the event on the *other* end of `local`'s channel, waking
    /// only the waiters on that remote port.
    pub fn notify(&self, local: Endpoint) -> Result<()> {
        let mut inner = self.inner.lock();
        let remote = match inner.ports.get(&local) {
            Some(PortRecord { state: ChannelState::Bound { remote }, .. }) => *remote,
            _ => return Err(XenError::BadPort),
        };
        let rec = inner.ports.get_mut(&remote).ok_or(XenError::BadPort)?;
        rec.pending = true;
        let waiter = Arc::clone(&rec.waiter);
        drop(inner);
        waiter.notify_all();
        Ok(())
    }

    /// Consume the pending flag on `local`, returning whether it was set.
    pub fn poll(&self, local: Endpoint) -> Result<bool> {
        let mut inner = self.inner.lock();
        let rec = inner.ports.get_mut(&local).ok_or(XenError::BadPort)?;
        let was = rec.pending;
        rec.pending = false;
        Ok(was)
    }

    /// Block until an event is pending on `local` (consuming it), or until
    /// `timeout` elapses. Returns whether an event arrived.
    pub fn wait(&self, local: Endpoint, timeout: Duration) -> Result<bool> {
        let mut inner = self.inner.lock();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let rec = inner.ports.get_mut(&local).ok_or(XenError::BadPort)?;
            if rec.pending {
                rec.pending = false;
                return Ok(true);
            }
            if matches!(rec.state, ChannelState::Closed) {
                return Err(XenError::BadPort);
            }
            let waiter = Arc::clone(&rec.waiter);
            if waiter.wait_until(&mut inner, deadline).timed_out() {
                return Ok(false);
            }
        }
    }

    /// Mark `local` and, if bound, its remote end dead; returns the
    /// waiters of every port it closed.
    fn close_locked(inner: &mut Inner, local: Endpoint) -> Option<Vec<Arc<Condvar>>> {
        let rec = inner.ports.get_mut(&local)?;
        let mut woken = vec![Arc::clone(&rec.waiter)];
        if let ChannelState::Bound { remote } =
            std::mem::replace(&mut rec.state, ChannelState::Closed)
        {
            if let Some(rrec) = inner.ports.get_mut(&remote) {
                rrec.state = ChannelState::Closed;
                woken.push(Arc::clone(&rrec.waiter));
            }
        }
        Some(woken)
    }

    /// Close `local`, marking both ends dead. Waiters on either end are
    /// woken and see [`XenError::BadPort`].
    pub fn close(&self, local: Endpoint) -> Result<()> {
        let woken = Self::close_locked(&mut self.inner.lock(), local).ok_or(XenError::BadPort)?;
        woken.iter().for_each(|w| w.notify_all());
        Ok(())
    }

    /// Tear down every port owned by `domain` (domain destruction). The
    /// waiters of every port closed or removed are woken and see
    /// [`XenError::BadPort`].
    pub fn purge_domain(&self, domain: DomainId) {
        let mut inner = self.inner.lock();
        let locals: Vec<Endpoint> =
            inner.ports.keys().filter(|ep| ep.domain == domain).copied().collect();
        let mut woken = Vec::new();
        for local in locals {
            woken.extend(Self::close_locked(&mut inner, local).into_iter().flatten());
            inner.ports.remove(&local);
        }
        drop(inner);
        woken.iter().for_each(|w| w.notify_all());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D0: DomainId = DomainId::DOM0;
    const D1: DomainId = DomainId(1);
    const D2: DomainId = DomainId(2);

    fn pair(ev: &EventChannels) -> (Endpoint, Endpoint) {
        let back = ev.alloc_unbound(D0, D1);
        let front = ev.bind_interdomain(D1, back).unwrap();
        (back, front)
    }

    #[test]
    fn notify_sets_remote_pending() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev);
        assert!(!ev.poll(front).unwrap());
        ev.notify(back).unwrap();
        assert!(ev.poll(front).unwrap());
        // Consumed.
        assert!(!ev.poll(front).unwrap());
        // And the reverse direction.
        ev.notify(front).unwrap();
        assert!(ev.poll(back).unwrap());
    }

    #[test]
    fn bind_requires_matching_peer() {
        let ev = EventChannels::new();
        let back = ev.alloc_unbound(D0, D1);
        assert_eq!(ev.bind_interdomain(D2, back), Err(XenError::BadPort));
        // The intended peer still can bind.
        assert!(ev.bind_interdomain(D1, back).is_ok());
        // But not twice.
        assert_eq!(ev.bind_interdomain(D1, back), Err(XenError::BadPort));
    }

    #[test]
    fn notify_unbound_fails() {
        let ev = EventChannels::new();
        let back = ev.alloc_unbound(D0, D1);
        assert_eq!(ev.notify(back), Err(XenError::BadPort));
    }

    #[test]
    fn wait_returns_on_notify() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev);
        let ev2 = ev.clone();
        let t = std::thread::spawn(move || ev2.wait(front, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        ev.notify(back).unwrap();
        assert_eq!(t.join().unwrap().unwrap(), true);
    }

    #[test]
    fn wait_times_out() {
        let ev = EventChannels::new();
        let (_back, front) = pair(&ev);
        assert_eq!(ev.wait(front, Duration::from_millis(20)).unwrap(), false);
    }

    #[test]
    fn close_propagates() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev);
        ev.close(front).unwrap();
        assert_eq!(ev.notify(back), Err(XenError::BadPort));
    }

    #[test]
    fn purge_kills_peer_channels() {
        let ev = EventChannels::new();
        let (back, _front) = pair(&ev);
        ev.purge_domain(D1);
        assert_eq!(ev.notify(back), Err(XenError::BadPort));
    }

    #[test]
    fn close_wakes_blocked_peer_waiter() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev);
        let ev2 = ev.clone();
        let t = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            (ev2.wait(back, Duration::from_secs(5)), start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(20));
        ev.close(front).unwrap();
        let (res, waited) = t.join().unwrap();
        assert_eq!(res, Err(XenError::BadPort));
        assert!(waited < Duration::from_secs(2), "woken by close, not the timeout: {waited:?}");
    }

    #[test]
    fn purge_wakes_blocked_dom0_waiter() {
        let ev = EventChannels::new();
        let (back, _front) = pair(&ev);
        let ev2 = ev.clone();
        let t = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            (ev2.wait(back, Duration::from_secs(5)), start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(20));
        ev.purge_domain(D1);
        let (res, waited) = t.join().unwrap();
        assert_eq!(res, Err(XenError::BadPort));
        assert!(waited < Duration::from_secs(2), "woken by purge, not the timeout: {waited:?}");
    }

    #[test]
    fn notify_leaves_other_channels_blocked() {
        let ev = EventChannels::new();
        let (back1, front1) = pair(&ev);
        let back2 = ev.alloc_unbound(D0, D2);
        let front2 = ev.bind_interdomain(D2, back2).unwrap();
        let ev2 = ev.clone();
        let t = std::thread::spawn(move || ev2.wait(front2, Duration::from_millis(200)));
        std::thread::sleep(Duration::from_millis(20));
        ev.notify(back1).unwrap();
        assert_eq!(t.join().unwrap(), Ok(false), "an event on another channel is not ours");
        // The event on the first channel is still pending for its owner.
        assert!(ev.poll(front1).unwrap());
    }

    #[test]
    fn concurrent_pairs_each_see_only_their_own_event() {
        let ev = EventChannels::new();
        let pairs = [pair(&ev), {
            let back = ev.alloc_unbound(D0, D2);
            (back, ev.bind_interdomain(D2, back).unwrap())
        }];
        let waiters: Vec<_> = pairs
            .iter()
            .map(|&(_, front)| {
                let ev = ev.clone();
                std::thread::spawn(move || ev.wait(front, Duration::from_secs(5)))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        let notifiers: Vec<_> = pairs
            .iter()
            .map(|&(back, _)| {
                let ev = ev.clone();
                std::thread::spawn(move || ev.notify(back))
            })
            .collect();
        for n in notifiers {
            n.join().unwrap().unwrap();
        }
        for w in waiters {
            assert_eq!(w.join().unwrap(), Ok(true));
        }
        // Each event was consumed exactly once, by its own waiter.
        for &(back, front) in &pairs {
            assert!(!ev.poll(front).unwrap());
            assert!(!ev.poll(back).unwrap());
        }
    }

    #[test]
    fn events_coalesce() {
        let ev = EventChannels::new();
        let (back, front) = pair(&ev);
        ev.notify(back).unwrap();
        ev.notify(back).unwrap();
        // Two notifies, one pending bit — exactly Xen's semantics.
        assert!(ev.poll(front).unwrap());
        assert!(!ev.poll(front).unwrap());
    }
}
