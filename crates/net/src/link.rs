//! The dialing side of a connection — the only dial in the crate.
//!
//! A [`RemoteDht`](crate::client::RemoteDht) asking a member for a key and
//! a `dhtd` member asking a peer to replicate one make the same exchange:
//! dial on first use, send one frame, read the reply back through the same
//! buffer, and drop the connection the moment an exchange fails so the
//! next call redials. [`Pooled`] is that exchange's one connection slot
//! (both callers hold one per remote member), [`Link`] the connection in
//! it. The accepting side, which owns its sockets differently, is
//! `server.rs`'s connection worker.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use p2p_index_dht::{DhtError, DhtResponse};

use crate::wire::{
    read_message_with, read_reply_with, release_frame_capacity, write_frame, Message, RecvError,
    Reply,
};

/// How long a dialer waits to connect, and for each read and write after.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Timeouts {
    pub(crate) connect: Duration,
    pub(crate) read: Duration,
    pub(crate) write: Duration,
}

/// One dialed connection and the frame buffer beside it. A link carries
/// one frame at a time — request out, then reply in — so one buffer serves
/// both directions and keeps its capacity from exchange to exchange, up to
/// [`release_frame_capacity`]'s bound: a reply (or a bucket `Transfer`)
/// that outgrew it gives the excess back as soon as it has been read.
pub(crate) struct Link {
    stream: TcpStream,
    frame: Vec<u8>,
}

impl Link {
    fn dial(addr: &SocketAddr, timeouts: Timeouts) -> io::Result<Link> {
        let stream = TcpStream::connect_timeout(addr, timeouts.connect)?;
        stream.set_read_timeout(Some(timeouts.read))?;
        stream.set_write_timeout(Some(timeouts.write))?;
        stream.set_nodelay(true)?;
        Ok(Link {
            stream,
            frame: Vec::new(),
        })
    }

    /// Sends the one frame `encode` appends to the (cleared) buffer;
    /// returns the bytes written.
    pub(crate) fn send(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<usize> {
        self.frame.clear();
        encode(&mut self.frame);
        write_frame(&mut self.stream, &self.frame)
    }

    /// Reads one frame of any kind, with the bytes read.
    pub(crate) fn recv(&mut self) -> Result<(Message, usize), RecvError> {
        let received = read_message_with(&mut self.stream, &mut self.frame);
        release_frame_capacity(&mut self.frame);
        received
    }

    /// Reads one reply frame, leaving its results in `results`
    /// ([`read_reply_with`]).
    pub(crate) fn recv_reply(
        &mut self,
        results: &mut Vec<Result<DhtResponse, DhtError>>,
    ) -> Result<Reply, RecvError> {
        let received = read_reply_with(&mut self.stream, &mut self.frame, results);
        release_frame_capacity(&mut self.frame);
        received
    }
}

/// The one connection kept to a remote member: dialed on first use, held
/// by whoever is mid-exchange on it, and emptied by whoever sees an
/// exchange fail. Callers that lease several members' links at once (a
/// pipelined client round, a member's write fan-out) take them in ring
/// order, so two such callers sharing one set of links cannot deadlock.
pub(crate) struct Pooled {
    pub(crate) addr: SocketAddr,
    link: Mutex<Option<Link>>,
}

impl Pooled {
    pub(crate) fn new(addr: SocketAddr) -> Pooled {
        Pooled {
            addr,
            link: Mutex::new(None),
        }
    }

    /// Locks the slot, dialing if it is empty. `None` inside the guard
    /// means the member could not be reached; a caller whose exchange then
    /// fails sets it back to `None`.
    pub(crate) fn lease(&self, timeouts: Timeouts) -> MutexGuard<'_, Option<Link>> {
        let mut slot = self.link.lock().expect("link holder panicked");
        if slot.is_none() {
            *slot = Link::dial(&self.addr, timeouts).ok();
        }
        slot
    }
}

#[cfg(test)]
impl Pooled {
    /// What the live link's frame buffer holds on to right now; `None`
    /// with no link up (never dials).
    pub(crate) fn frame_capacity(&self) -> Option<usize> {
        let slot = self.link.lock().unwrap();
        slot.as_ref().map(|link| link.frame.capacity())
    }
}
