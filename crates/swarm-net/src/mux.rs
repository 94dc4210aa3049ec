//! Request-ID multiplexing: many in-flight RPCs on one connection.
//!
//! A multiplexed channel carries any number of concurrent calls on a
//! single socket: each request frame is prefixed with a 64-bit request
//! id, the server echoes the id on the response frame, and the channel
//! matches responses to waiting callers by id — order on the wire does
//! not matter. This is the only TCP session mode.
//!
//! The handshake opens with a hello frame: [`MUX_HELLO_MAGIC`] followed
//! by the client's [`ClientId`] (8 bytes). The server answers with the
//! plain [`ServerId`] frame. Any other hello, including a bare 4-byte
//! client id, is refused by closing the connection.
//!
//! A mux frame payload is `id:u64le ++ message` in both directions.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use swarm_types::{Bytes, ClientId, Decode, Encode, Result, ServerId, SwarmError};

use crate::frame::{frame_header_for, FrameProgress, FrameReader};
use crate::reactor::{Ctx, Handle, Ready, Source};

/// First four bytes of a hello frame: `"MUX1"` little-endian.
pub(crate) const MUX_HELLO_MAGIC: [u8; 4] = *b"MUX1";

/// Length of the request-id prefix on every mux frame payload.
const MUX_ID_PREFIX: usize = 8;

/// Builds the hello frame payload that opens a session.
pub(crate) fn encode_mux_hello(client: ClientId) -> Vec<u8> {
    let mut hello = Vec::with_capacity(8);
    hello.extend_from_slice(&MUX_HELLO_MAGIC);
    let mut w = swarm_types::ByteWriter::new();
    client.encode(&mut w);
    hello.extend_from_slice(w.as_slice());
    hello
}

/// Decodes a hello frame payload into the client's id.
///
/// # Errors
///
/// Returns a protocol error if the frame does not open with
/// [`MUX_HELLO_MAGIC`], or a decode error if the client id is malformed.
pub(crate) fn parse_hello(frame: &[u8]) -> Result<ClientId> {
    match frame.strip_prefix(&MUX_HELLO_MAGIC) {
        Some(client) => ClientId::decode_all(client),
        None => Err(SwarmError::protocol("hello without the MUX1 magic")),
    }
}

/// One segment of queued output: either an owned header or a shared
/// payload view (a `Store`'s fragment bytes travel to the socket without
/// ever being copied into a contiguous message).
pub(crate) enum Seg {
    /// Owned bytes (frame header + message header).
    Owned(Vec<u8>),
    /// Shared payload view.
    Shared(Bytes),
}

impl Seg {
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            Seg::Owned(v) => v,
            Seg::Shared(b) => b,
        }
    }
}

/// A waiting caller's slot: `None` until the response (or failure) lands.
type PendingSlot = Option<Result<Bytes>>;

struct MuxState {
    next_id: u64,
    /// Bulk frames (requests carrying a payload — stores). Each frame is
    /// a contiguous run of segments: `Owned(head)` then `Shared(payload)`.
    outbox: VecDeque<Seg>,
    /// Payload-free frames (reads, locates, pings): drained ahead of the
    /// bulk lane so a windowed writer's fragment payloads cannot
    /// head-of-line-block a read on the shared socket. Safe to reorder
    /// across lanes: responses are matched by request id, and the
    /// durability contract orders stores via flush, not the wire.
    priority: VecDeque<Seg>,
    pending: HashMap<u64, PendingSlot>,
    /// Set when the socket died; every call fails fast afterwards.
    dead: bool,
    /// High-water mark of concurrently pending calls (diagnostic).
    inflight_peak: usize,
}

/// The caller-facing half of a multiplexed connection: assign an id,
/// queue the frame, wake the reactor, wait on the condvar for the
/// response with that id.
pub(crate) struct MuxChannel {
    server: ServerId,
    state: Mutex<MuxState>,
    cv: Condvar,
    handle: OnceLock<Handle>,
}

impl MuxChannel {
    pub(crate) fn new(server: ServerId) -> Arc<MuxChannel> {
        Arc::new(MuxChannel {
            server,
            state: Mutex::new(MuxState {
                next_id: 1,
                outbox: VecDeque::new(),
                priority: VecDeque::new(),
                pending: HashMap::new(),
                dead: false,
                inflight_peak: 0,
            }),
            cv: Condvar::new(),
            handle: OnceLock::new(),
        })
    }

    pub(crate) fn set_handle(&self, handle: Handle) {
        let _ = self.handle.set(handle);
    }

    /// True until the underlying socket fails.
    pub(crate) fn is_alive(&self) -> bool {
        !self.state.lock().dead
    }

    /// High-water mark of concurrently in-flight calls on this channel.
    pub(crate) fn inflight_peak(&self) -> usize {
        self.state.lock().inflight_peak
    }

    /// Marks the channel dead and asks the reactor to drop its source,
    /// closing the socket. Pending calls fail with `ServerUnavailable`.
    pub(crate) fn shutdown(&self) {
        self.fail_all();
        if let Some(h) = self.handle.get() {
            h.close();
        }
    }

    /// Fails every pending call and poisons the channel.
    pub(crate) fn fail_all(&self) {
        let mut st = self.state.lock();
        st.dead = true;
        st.outbox.clear();
        st.priority.clear();
        for slot in st.pending.values_mut() {
            if slot.is_none() {
                *slot = Some(Err(SwarmError::ServerUnavailable(self.server)));
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Queues `header ++ payload` as one request frame, wakes the reactor,
    /// and returns the request id without waiting for the response. Pair
    /// with [`MuxChannel::finish`]; a caller may hold any number of
    /// outstanding ids, which is what pipelined stores ride on.
    pub(crate) fn begin(&self, header: &[u8], payload: &Bytes) -> Result<u64> {
        let id = {
            let mut st = self.state.lock();
            if st.dead {
                return Err(SwarmError::ServerUnavailable(self.server));
            }
            let id = st.next_id;
            st.next_id += 1;
            let id_bytes = id.to_le_bytes();
            let fh = frame_header_for(&[&id_bytes, header, payload])?;
            let mut head = Vec::with_capacity(12 + MUX_ID_PREFIX + header.len());
            head.extend_from_slice(&fh);
            head.extend_from_slice(&id_bytes);
            head.extend_from_slice(header);
            if payload.is_empty() {
                // Read/control frame: the priority lane, so it cannot
                // queue behind a window's worth of store payloads.
                st.priority.push_back(Seg::Owned(head));
            } else {
                st.outbox.push_back(Seg::Owned(head));
                st.outbox.push_back(Seg::Shared(payload.share()));
            }
            st.pending.insert(id, None);
            let inflight = st.pending.len();
            if inflight > st.inflight_peak {
                st.inflight_peak = inflight;
            }
            id
        };
        if let Some(h) = self.handle.get() {
            h.notify();
        }
        Ok(id)
    }

    /// Blocks until the response for `id` arrives, `deadline` passes, or
    /// the channel dies. Ids may be finished in any order regardless of
    /// the order their responses arrive.
    pub(crate) fn finish(&self, id: u64, deadline: Option<Instant>) -> Result<Bytes> {
        // Fixed deadline, not a fresh `timeout` per wakeup: every response
        // notify_all()s all waiters, so re-waiting the full duration after
        // each wakeup would let a busy channel postpone this call's
        // timeout indefinitely.
        let mut st = self.state.lock();
        loop {
            if let Some(Some(_)) = st.pending.get(&id) {
                // Response (or failure) landed; take it.
                return st.pending.remove(&id).flatten().expect("slot filled");
            }
            if st.dead {
                st.pending.remove(&id);
                return Err(SwarmError::ServerUnavailable(self.server));
            }
            match deadline {
                None => self.cv.wait(&mut st),
                Some(d) => {
                    let remaining = d.saturating_duration_since(Instant::now());
                    // The shim's wait_for returns true on timeout.
                    if remaining.is_zero() || self.cv.wait_for(&mut st, remaining) {
                        if let Some(Some(_)) = st.pending.get(&id) {
                            return st.pending.remove(&id).flatten().expect("slot filled");
                        }
                        // Abandon the call; a late response finds no slot
                        // and is dropped by the source.
                        st.pending.remove(&id);
                        return Err(SwarmError::ServerUnavailable(self.server));
                    }
                }
            }
        }
    }

    /// Ships `header ++ payload` as one request frame and blocks until the
    /// response with the matching id arrives, the timeout lapses, or the
    /// channel dies.
    pub(crate) fn call(
        &self,
        header: &[u8],
        payload: &Bytes,
        timeout: Option<Duration>,
    ) -> Result<Bytes> {
        let id = self.begin(header, payload)?;
        self.finish(id, timeout.map(|t| Instant::now() + t))
    }
}

/// The reactor half of a multiplexed connection: drains the channel's
/// outbox to the socket and routes response frames back by id.
pub(crate) struct MuxSource {
    stream: TcpStream,
    channel: Arc<MuxChannel>,
    reader: FrameReader,
    /// Segments taken from the channel outbox, front partially written.
    local: VecDeque<Seg>,
    front_off: usize,
}

impl MuxSource {
    pub(crate) fn new(stream: TcpStream, channel: Arc<MuxChannel>) -> MuxSource {
        MuxSource {
            stream,
            channel,
            reader: FrameReader::new(),
            local: VecDeque::new(),
            front_off: 0,
        }
    }

    /// Moves queued segments from the shared outbox into the local write
    /// queue (shrinking the time the channel lock is held to a swap).
    /// The priority lane drains first; lanes are concatenated, never
    /// interleaved, and `local` is only refilled when empty, so every
    /// frame's head/payload segments stay contiguous on the wire.
    fn take_outbox(&mut self) {
        let mut st = self.channel.state.lock();
        while let Some(seg) = st.priority.pop_front() {
            self.local.push_back(seg);
        }
        while let Some(seg) = st.outbox.pop_front() {
            self.local.push_back(seg);
        }
    }

    /// Writes until the socket would block or the queues drain. Returns
    /// false on a fatal socket error.
    fn pump_write(&mut self) -> bool {
        loop {
            if self.local.is_empty() {
                self.take_outbox();
                if self.local.is_empty() {
                    return true;
                }
            }
            let front = &self.local[0];
            let slice = &front.as_slice()[self.front_off..];
            match (&self.stream).write(slice) {
                Ok(0) => return false,
                Ok(n) => {
                    crate::tcp::metrics().client_bytes_out.add(n as u64);
                    self.front_off += n;
                    if self.front_off == front.as_slice().len() {
                        self.local.pop_front();
                        self.front_off = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Reads response frames and completes their pending calls. Returns
    /// false on EOF, a fatal socket error, or a corrupt stream.
    fn pump_read(&mut self) -> bool {
        loop {
            match self.reader.read_from(&mut &self.stream) {
                Ok(FrameProgress::Frame(frame)) => {
                    crate::tcp::metrics()
                        .client_bytes_in
                        .add(frame.len() as u64);
                    if frame.len() < MUX_ID_PREFIX {
                        return false; // not a mux frame: protocol breach
                    }
                    let id = u64::from_le_bytes(frame[..MUX_ID_PREFIX].try_into().unwrap());
                    let body = Bytes::from(frame).slice(MUX_ID_PREFIX..);
                    let mut st = self.channel.state.lock();
                    if let Some(slot) = st.pending.get_mut(&id) {
                        *slot = Some(Ok(body));
                        drop(st);
                        self.channel.cv.notify_all();
                    }
                    // No slot: the caller timed out and abandoned the id.
                }
                Ok(FrameProgress::Blocked) => return true,
                Ok(FrameProgress::Eof) | Err(_) => return false,
            }
        }
    }
}

impl Source for MuxSource {
    fn fd(&self) -> epoll::RawFd {
        #[cfg(target_os = "linux")]
        {
            use std::os::fd::AsRawFd;
            self.stream.as_raw_fd()
        }
        #[cfg(not(target_os = "linux"))]
        {
            -1
        }
    }

    fn interest(&self) -> epoll::Interest {
        let pending_output = !self.local.is_empty() || {
            let st = self.channel.state.lock();
            !st.outbox.is_empty() || !st.priority.is_empty()
        };
        epoll::Interest {
            readable: true,
            writable: pending_output,
        }
    }

    fn on_ready(&mut self, readable: bool, writable: bool, _ctx: &mut Ctx<'_>) -> Ready {
        if writable && !self.pump_write() {
            self.channel.fail_all();
            return Ready::Close;
        }
        if readable && !self.pump_read() {
            self.channel.fail_all();
            return Ready::Close;
        }
        Ready::Continue
    }

    fn on_notify(&mut self, _ctx: &mut Ctx<'_>) -> Ready {
        if !self.pump_write() {
            self.channel.fail_all();
            return Ready::Close;
        }
        Ready::Continue
    }
}

impl Drop for MuxSource {
    fn drop(&mut self) {
        // The reactor dropped us (shutdown or Close): callers must not
        // wait out their full timeout for a response that cannot come.
        self.channel.fail_all();
    }
}

/// Blocking dial + handshake for a multiplexed connection: connect,
/// announce mux, validate the server's identity, then flip the socket to
/// non-blocking for the reactor. Uses `timeout` for the handshake I/O.
pub(crate) fn mux_dial(
    addr: std::net::SocketAddr,
    server: ServerId,
    client: ClientId,
    timeout: Option<Duration>,
) -> Result<TcpStream> {
    let unavailable = |_| SwarmError::ServerUnavailable(server);
    // Bound the dial by the call timeout: the OS default connect timeout
    // can run to minutes, far longer than any caller is willing to wait.
    let stream = match timeout {
        Some(t) => TcpStream::connect_timeout(&addr, t),
        None => TcpStream::connect(addr),
    }
    .map_err(unavailable)?;
    stream.set_nodelay(true).map_err(unavailable)?;
    stream.set_read_timeout(timeout).map_err(unavailable)?;
    stream.set_write_timeout(timeout).map_err(unavailable)?;
    let mut writer = std::io::BufWriter::new(stream.try_clone().map_err(unavailable)?);
    crate::frame::write_frame(&mut writer, &encode_mux_hello(client))
        .map_err(|_| SwarmError::ServerUnavailable(server))?;
    let mut reader = std::io::BufReader::new(stream.try_clone().map_err(unavailable)?);
    let ack =
        crate::frame::read_frame(&mut reader).map_err(|_| SwarmError::ServerUnavailable(server))?;
    let got = ServerId::decode_all(&ack).map_err(|_| SwarmError::ServerUnavailable(server))?;
    if got != server {
        return Err(SwarmError::protocol(format!(
            "handshake: expected server {server}, got {got}"
        )));
    }
    // Anything buffered beyond the ack would be lost here; the server
    // sends nothing unprompted after its hello, so the buffers are empty.
    drop(reader);
    stream.set_read_timeout(None).map_err(unavailable)?;
    stream.set_write_timeout(None).map_err(unavailable)?;
    stream.set_nonblocking(true).map_err(unavailable)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrips_and_legacy_hello_is_refused() {
        let mux = encode_mux_hello(ClientId::new(42));
        assert_eq!(mux.len(), 8);
        assert_eq!(parse_hello(&mux).unwrap(), ClientId::new(42));

        let mut w = swarm_types::ByteWriter::new();
        ClientId::new(7).encode(&mut w);
        assert!(
            parse_hello(w.as_slice()).is_err(),
            "a bare client id (the old classic hello) is refused"
        );
        assert!(parse_hello(b"garbage that is long").is_err());
        assert!(parse_hello(b"MUX1 trailing junk").is_err());
    }

    #[test]
    fn dead_channel_fails_calls_fast() {
        let ch = MuxChannel::new(ServerId::new(3));
        ch.fail_all();
        let err = ch
            .call(b"hdr", &Bytes::new(), Some(Duration::from_secs(5)))
            .unwrap_err();
        assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
    }

    /// Split begin/finish: a caller holds several outstanding ids and may
    /// harvest them in submission order even when the responses land in
    /// reverse — the window the pipelined write path relies on.
    #[test]
    fn begin_finish_harvests_out_of_order_completions() {
        let ch = MuxChannel::new(ServerId::new(5));
        let ids: Vec<u64> = (0..4)
            .map(|i| {
                ch.begin(format!("hdr{i}").as_bytes(), &Bytes::new())
                    .expect("begin")
            })
            .collect();
        assert_eq!(ch.inflight_peak(), 4, "all four must be pending at once");

        // Responses arrive in reverse order (what pump_read would do).
        let (ch2, ids2) = (ch.clone(), ids.clone());
        let responder = std::thread::spawn(move || {
            for &id in ids2.iter().rev() {
                std::thread::sleep(Duration::from_millis(5));
                let mut st = ch2.state.lock();
                if let Some(slot) = st.pending.get_mut(&id) {
                    *slot = Some(Ok(Bytes::from(id.to_le_bytes().to_vec())));
                }
                drop(st);
                ch2.cv.notify_all();
            }
        });

        // Harvest in submission order; each finish must get its own bytes.
        for &id in &ids {
            let body = ch
                .finish(id, Some(Instant::now() + Duration::from_secs(5)))
                .expect("finish");
            assert_eq!(&body[..], id.to_le_bytes());
        }
        responder.join().unwrap();
        assert!(ch.state.lock().pending.is_empty());
    }

    /// A payload-free frame queued *after* a window of store frames is
    /// drained to the socket *before* them: the priority lane is the fix
    /// for reads head-of-line-blocking behind windowed store payloads.
    /// Frame contiguity must survive — a store's head and payload stay
    /// adjacent.
    #[test]
    fn priority_lane_overtakes_queued_store_payloads() {
        let ch = MuxChannel::new(ServerId::new(2));
        // Three "stores": header + 4 KiB payload each.
        for i in 0..3u8 {
            ch.begin(&[i], &Bytes::from(vec![i; 4096])).unwrap();
        }
        // Then a "read": no payload.
        let read_id = ch.begin(b"read-hdr", &Bytes::new()).unwrap();

        // What take_outbox would hand the reactor, in order.
        let mut segs = Vec::new();
        {
            let mut st = ch.state.lock();
            while let Some(s) = st.priority.pop_front() {
                segs.push(s);
            }
            while let Some(s) = st.outbox.pop_front() {
                segs.push(s);
            }
        }
        assert_eq!(segs.len(), 7, "1 read head + 3 store (head, payload) pairs");
        // The read frame leads, and its head carries the read's id.
        let Seg::Owned(head) = &segs[0] else {
            panic!("read frame must be an owned head");
        };
        let id = u64::from_le_bytes(head[12..20].try_into().unwrap());
        assert_eq!(id, read_id, "priority frame is the read");
        // Every store's head is immediately followed by its payload.
        for pair in segs[1..].chunks(2) {
            assert!(matches!(pair[0], Seg::Owned(_)));
            assert!(matches!(pair[1], Seg::Shared(_)));
            let Seg::Owned(head) = &pair[0] else {
                unreachable!()
            };
            let Seg::Shared(payload) = &pair[1] else {
                unreachable!()
            };
            // The store head's first body byte (after the 12-byte frame
            // header and 8-byte id) names the fill of its own payload.
            assert_eq!(head[20], payload[0], "store frame torn apart");
        }
    }

    /// Regression: re-waiting with the full timeout after every wakeup let
    /// a busy channel (whose responses notify_all every waiter) postpone a
    /// never-answered call's timeout indefinitely.
    #[test]
    fn call_timeout_survives_unrelated_wakeups() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let ch = MuxChannel::new(ServerId::new(9));
        let stop = Arc::new(AtomicBool::new(false));
        let (ch2, stop2) = (ch.clone(), stop.clone());
        // Spurious wakeups faster than the call timeout, for ~2 s.
        let noisy = std::thread::spawn(move || {
            for _ in 0..400 {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                ch2.cv.notify_all();
                std::thread::sleep(Duration::from_millis(5));
            }
        });

        let t0 = Instant::now();
        let err = ch
            .call(b"hdr", &Bytes::new(), Some(Duration::from_millis(100)))
            .unwrap_err();
        assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "timeout was reset by wakeups: took {:?}",
            t0.elapsed()
        );
        stop.store(true, Ordering::SeqCst);
        noisy.join().unwrap();
    }
}
