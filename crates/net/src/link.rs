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

/// The one connection kept to a remote member: dialed on first use and
/// emptied by whoever sees an exchange fail. A caller either holds the
/// slot's lock for its whole exchange (a member's write fan-out, which
/// leases several peers at once and so takes them in ring order: two
/// fan-outs sharing one set of links cannot deadlock), or checks the link
/// out — `lease(..).take()`, lock released at once — and returns it with
/// [`put_back`](Self::put_back) after a good reply (a pipelined client
/// round, which holds no lock across its I/O).
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

    /// Returns a checked-out link to its empty slot. If another caller
    /// refilled the slot meanwhile, the slot keeps that link and this one
    /// is dropped: a member keeps one connection.
    pub(crate) fn put_back(&self, link: Link) {
        let mut slot = self.link.lock().expect("link holder panicked");
        if slot.is_none() {
            *slot = Some(link);
        }
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

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use super::*;

    #[test]
    fn a_checked_out_link_goes_back_only_into_an_empty_slot() {
        // The listener never accepts; its backlog completes the dials.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pooled = Pooled::new(listener.local_addr().unwrap());
        let timeouts = Timeouts {
            connect: Duration::from_secs(1),
            read: Duration::from_secs(1),
            write: Duration::from_secs(1),
        };
        let port_in_slot = || {
            let slot = pooled.lease(timeouts);
            slot.as_ref()
                .expect("the listener is up")
                .stream
                .local_addr()
                .unwrap()
        };
        let out = pooled.lease(timeouts).take().expect("the listener is up");
        let out_port = out.stream.local_addr().unwrap();
        // Someone else asks the member meanwhile: the empty slot redials.
        let refilled = port_in_slot();
        assert_ne!(refilled, out_port);
        pooled.put_back(out);
        assert_eq!(port_in_slot(), refilled, "the slot keeps the link it has");
        let out = pooled.lease(timeouts).take().unwrap();
        pooled.put_back(out);
        assert_eq!(port_in_slot(), refilled, "an empty slot takes it back");
    }
}
