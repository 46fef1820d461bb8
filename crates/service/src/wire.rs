//! The one NDJSON transport: the stream loop, the TCP accept/drain
//! loop and the client connection of `coded`, `codar-proxy` and
//! `loadgen`.
//!
//! # Stream contract
//!
//! For any byte stream, [`serve_stream`] keeps these promises for every
//! [`Endpoint`] (the daemon's [`Service`](crate::Service) and the
//! [`Proxy`](crate::Proxy) alike):
//!
//! * **Framing** is [`BufRead::lines`]': split at `\n`, drop a trailing
//!   `\n` or `\r\n`. A last line without a newline is still a line.
//! * **One reply per line.** Blank lines are skipped. Every other line
//!   gets one well-formed reply line, in order, written with one
//!   `write_all` and flushed. A line that is not UTF-8 or is longer
//!   than [`MAX_REQUEST_LINE_BYTES`] gets an error reply
//!   ([`BadFrame::body`]) and the stream continues.
//! * **Bounded memory.** At most [`MAX_REQUEST_LINE_BYTES`] + 1 bytes
//!   of a line are buffered; the rest of an over-long line is skipped.
//! * **Stop.** Once any stream of an endpoint has served a `shutdown`,
//!   no stream of it answers another line.
//!
//! [`Conn`] is the client side: one write per request, and a reply
//! counts only as a whole `\n`-terminated frame.

use crate::faults::FaultAction;
use crate::protocol::error_body;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest request line (bytes, newline excluded) the servers buffer:
/// ≥ 70× the largest route line of the benchmark suite (~226 KB).
pub const MAX_REQUEST_LINE_BYTES: usize = 16 << 20;

/// Drain deadline of `coded` and `codar-proxy` without `--drain-ms`.
pub const DEFAULT_DRAIN: Duration = Duration::from_secs(5);

/// A server the wire loops drive. The fault hooks default to "no
/// faults"; only the daemon's fault injector overrides them.
pub trait Endpoint: Clone + Send + 'static {
    /// Per-stream state.
    type Conn;
    /// Fresh state for one stream.
    fn open(&self) -> Self::Conn;
    /// The reply body (no newline) to one framed request line.
    fn answer(&self, conn: &mut Self::Conn, frame: Frame<'_>) -> String;
    /// Whether a `shutdown` has been served.
    fn stopping(&self) -> bool;
    /// Counts one request line against a fault plan; returns its orders.
    fn fault(&self) -> FaultAction {
        FaultAction::None
    }
    /// Whether the accept loop must close its listener (a `refuse`).
    fn refusing(&self) -> bool {
        false
    }
    /// Whether a `kill` fault has fired: the loops stop as on a
    /// shutdown but write no goodbye, as a dead process writes nothing.
    fn killed(&self) -> bool {
        false
    }
}

/// One framed request line: its text, or why it has none.
pub type Frame<'a> = Result<&'a str, BadFrame>;

/// A request line the framer cannot hand over as text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BadFrame {
    /// The line is not valid UTF-8.
    NotUtf8,
    /// The line is longer than [`MAX_REQUEST_LINE_BYTES`].
    TooLong,
}

impl BadFrame {
    /// The error reply body, the same from daemon and proxy.
    pub fn body(self) -> String {
        match self {
            BadFrame::NotUtf8 => error_body("request line is not valid UTF-8"),
            BadFrame::TooLong => error_body(&format!(
                "request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"
            )),
        }
    }
}

/// Reads the next request line into `buf`, reused across calls;
/// `Ok(None)` at end of input.
fn read_frame<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Frame<'b>>> {
    let limit = MAX_REQUEST_LINE_BYTES + 1;
    buf.clear();
    loop {
        // Grow by doubling from `BufReader`'s 8 KiB chunk, as `Vec`
        // does, but never past `limit`: an over-long line costs the cap
        // in buffer, not twice it.
        if buf.len() == buf.capacity() {
            let grown = (2 * buf.capacity()).clamp(8 << 10, limit);
            buf.reserve_exact(grown - buf.len());
        }
        let room = buf.capacity().min(limit) - buf.len();
        let read = Read::take(&mut *reader, room as u64).read_until(b'\n', buf)?;
        if read < room || buf.last() == Some(&b'\n') || buf.len() >= limit {
            break;
        }
    }
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_REQUEST_LINE_BYTES {
        reader.skip_until(b'\n')?;
        return Ok(Some(Err(BadFrame::TooLong)));
    }
    Ok(Some(
        std::str::from_utf8(buf).map_err(|_| BadFrame::NotUtf8),
    ))
}

/// Serves one NDJSON stream under the contract in the module docs.
/// Returns at end of input, once `endpoint` is stopping, or when a
/// fault ends the stream.
///
/// # Errors
///
/// Propagates I/O errors from the reader or writer.
pub fn serve_stream<E: Endpoint>(
    endpoint: &E,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> io::Result<()> {
    let mut conn = endpoint.open();
    let mut buf = Vec::new();
    while let Some(frame) = read_frame(&mut reader, &mut buf)? {
        // Before, not only after, each line: a shutdown served on a
        // concurrent stream (or a kill fault) stops this one at its
        // next line.
        if endpoint.stopping() || endpoint.killed() {
            break;
        }
        if frame.is_ok_and(|line| line.trim().is_empty()) {
            continue;
        }
        // `Some(n)` is the torn frame: n bytes of the real reply, then
        // the stream ends.
        let cut = match endpoint.fault() {
            FaultAction::None => None,
            FaultAction::Delay(pause) => {
                std::thread::sleep(pause);
                None
            }
            FaultAction::Hang(pause) => {
                // A stuck shard: park, then close without a reply.
                std::thread::sleep(pause);
                break;
            }
            FaultAction::Kill => break,
            FaultAction::CloseAfter(bytes) => Some(bytes),
        };
        let mut reply = endpoint.answer(&mut conn, frame);
        reply.push('\n');
        let len = cut.map_or(reply.len(), |bytes| bytes.min(reply.len()));
        // One write per line: a split write would put the newline in its
        // own TCP segment and stall on Nagle/delayed-ACK interaction.
        writer.write_all(&reply.as_bytes()[..len])?;
        writer.flush()?;
        if cut.is_some() || endpoint.stopping() {
            break;
        }
    }
    Ok(())
}

/// Accept loop: one [`serve_stream`] thread per connection. Returns
/// once a `shutdown` has been served (or a kill fault fired) and the
/// connection threads have drained.
///
/// A thread parked in a read on an idle connection cannot be
/// interrupted portably, so the drain is bounded by `drain`: a
/// connection still open then gets one final `error:"draining"` line
/// and a clean close, never silence or a torn frame.
///
/// # Errors
///
/// Propagates accept errors other than `WouldBlock`.
pub fn serve_tcp<E: Endpoint>(
    endpoint: &E,
    listener: TcpListener,
    drain: Duration,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    // An Option so a `refuse` fault can close it mid-loop.
    let mut listener = Some(listener);
    let mut connections: Vec<(JoinHandle<()>, SharedWriter)> = Vec::new();
    while !endpoint.stopping() && !endpoint.killed() {
        if endpoint.refusing() {
            listener = None;
        }
        let Some(active) = listener.as_ref() else {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        match active.accept() {
            Ok((stream, _addr)) => {
                // Reap as we go: the list tracks live connections.
                for (handle, _) in connections.extract_if(.., |(handle, _)| handle.is_finished()) {
                    let _ = handle.join();
                }
                // A setup failure (e.g. an instant RST) costs only that
                // client its connection. Lines are small, so Nagle
                // coalescing would cost tens of ms per line.
                if stream.set_nodelay(true).is_err() {
                    continue;
                }
                let Ok(reader) = stream.try_clone() else {
                    continue;
                };
                let shared = SharedWriter(Arc::new(Mutex::new(stream)));
                let writer = shared.clone();
                let endpoint = endpoint.clone();
                connections.push((
                    std::thread::spawn(move || {
                        let _ = serve_stream(&endpoint, BufReader::new(reader), writer);
                    }),
                    shared,
                ));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    let deadline = Instant::now() + drain;
    let courtesy = !endpoint.killed();
    let wait = |handle: &JoinHandle<()>, until: Instant| {
        while !handle.is_finished() && Instant::now() < until {
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    for (handle, shared) in connections {
        wait(&handle, deadline);
        if !handle.is_finished() {
            // The socket shutdown wakes the parked reader with EOF; a
            // short grace bounds the join (a hang-faulted thread may
            // sleep past it, holding nothing but its stack by now).
            shared.close(courtesy);
            wait(&handle, Instant::now() + Duration::from_millis(250));
        }
        if handle.is_finished() {
            let _ = handle.join();
        }
    }
    Ok(())
}

/// A connection's socket, shared by its serve thread and the drain
/// path. Each [`Write::write`] writes the whole buffer under one lock
/// hold, so the two sides' lines never interleave mid-line.
#[derive(Clone)]
struct SharedWriter(Arc<Mutex<TcpStream>>);

impl SharedWriter {
    fn lock(&self) -> io::Result<MutexGuard<'_, TcpStream>> {
        self.0
            .lock()
            .map_err(|_| io::Error::other("writer lock poisoned"))
    }

    /// With `courtesy`, writes the draining line; then shuts the socket
    /// down. Write errors are ignored: the client may be gone.
    fn close(&self, courtesy: bool) {
        let Ok(mut stream) = self.lock() else {
            return;
        };
        if courtesy {
            let mut line = error_body("draining: connection closed by server shutdown");
            line.push('\n');
            let _ = stream.write_all(line.as_bytes());
            let _ = stream.flush();
        }
        let _ = stream.shutdown(Shutdown::Both);
    }
}

impl Write for SharedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.lock()?.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.lock()?.flush()
    }
}

/// A client connection in [`serve_stream`]'s framing: the proxy's
/// backend connections and probes, and loadgen's
/// [`TcpTransport`](crate::TcpTransport).
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The framed request, reused across sends.
    request: Vec<u8>,
}

impl Conn {
    /// Connects to `addr` (`host:port`), each resolved address within
    /// `connect_timeout` if given; replies are read under
    /// `read_timeout`. Sets `TCP_NODELAY`: small lines must not wait
    /// for Nagle coalescing.
    ///
    /// # Errors
    ///
    /// Propagates resolve, connect and socket-option errors.
    pub fn connect(
        addr: &str,
        connect_timeout: Option<Duration>,
        read_timeout: Option<Duration>,
    ) -> io::Result<Conn> {
        let mut last = io::Error::other("address resolved to nothing");
        let stream = addr.to_socket_addrs()?.find_map(|sock| {
            match connect_timeout {
                Some(timeout) => TcpStream::connect_timeout(&sock, timeout),
                None => TcpStream::connect(sock),
            }
            .map_err(|e| last = e)
            .ok()
        });
        let stream = stream.ok_or(last)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(read_timeout)?;
        Conn::over(stream)
    }

    fn over(stream: TcpStream) -> io::Result<Conn> {
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            request: Vec::new(),
        })
    }

    /// Another handle on the same connection, so one thread can
    /// [`send`](Conn::send) while another [`recv`](Conn::recv)s.
    ///
    /// # Errors
    ///
    /// Propagates the socket clone error.
    pub fn try_clone(&self) -> io::Result<Conn> {
        Conn::over(self.writer.try_clone()?)
    }

    /// Sends `line` and returns its reply.
    ///
    /// # Errors
    ///
    /// As [`Conn::send`] and [`Conn::recv`].
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// Writes `line` and its newline with one `write_all`, then flushes.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.request.clear();
        self.request.extend_from_slice(line.as_bytes());
        self.request.push(b'\n');
        self.writer.write_all(&self.request)?;
        self.writer.flush()
    }

    /// Reads the next reply and strips its one `\n`.
    ///
    /// # Errors
    ///
    /// I/O errors, a read timeout included; `UnexpectedEof` when the
    /// peer closed before replying; `InvalidData` for a torn frame (EOF
    /// mid-line) or a reply that is not UTF-8.
    pub fn recv(&mut self) -> io::Result<String> {
        let mut reply = Vec::new();
        if self.reader.read_until(b'\n', &mut reply)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        if reply.pop() != Some(b'\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "torn reply frame",
            ));
        }
        String::from_utf8(reply).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers each text line with itself and each bad frame with its
    /// error body.
    #[derive(Clone)]
    struct Echo;

    impl Endpoint for Echo {
        type Conn = ();

        fn open(&self) {}

        fn answer(&self, _conn: &mut (), frame: Frame<'_>) -> String {
            frame.map_or_else(BadFrame::body, str::to_string)
        }

        fn stopping(&self) -> bool {
            false
        }
    }

    #[test]
    fn over_long_line_is_answered_without_buffering_it() {
        let input = || {
            io::repeat(b'a')
                .take(64 << 20)
                .chain(&b"\n{\"id\":1}\n"[..])
        };
        let mut out = Vec::new();
        serve_stream(&Echo, BufReader::new(input()), &mut out).expect("stream served");
        let text = String::from_utf8(out).expect("replies are UTF-8");
        let replies: Vec<&str> = text.lines().collect();
        assert_eq!(replies, [BadFrame::TooLong.body().as_str(), "{\"id\":1}"]);

        let mut reader = BufReader::new(input());
        let mut buf = Vec::new();
        let first = read_frame(&mut reader, &mut buf).expect("read");
        assert_eq!(first, Some(Err(BadFrame::TooLong)));
        assert!(
            buf.capacity() <= MAX_REQUEST_LINE_BYTES + (64 << 10),
            "framer buffered {} bytes",
            buf.capacity()
        );
        let second = read_frame(&mut reader, &mut buf).expect("read");
        assert_eq!(second, Some(Ok("{\"id\":1}")));
        assert_eq!(read_frame(&mut reader, &mut buf).expect("read"), None);
    }

    #[test]
    fn the_cap_is_exact() {
        let mut longest = vec![b'b'; MAX_REQUEST_LINE_BYTES];
        longest.push(b'\n');
        let mut over = vec![b'c'; MAX_REQUEST_LINE_BYTES + 1];
        over.extend_from_slice(b"\r\nlast");
        let input = [longest, over].concat();
        let mut reader = BufReader::new(&input[..]);
        let mut buf = Vec::new();
        match read_frame(&mut reader, &mut buf).expect("read") {
            Some(Ok(line)) => assert_eq!(line.len(), MAX_REQUEST_LINE_BYTES),
            other => panic!("a line of exactly the cap is served, got {other:?}"),
        }
        let over = read_frame(&mut reader, &mut buf).expect("read");
        assert_eq!(over, Some(Err(BadFrame::TooLong)));
        let last = read_frame(&mut reader, &mut buf).expect("read");
        assert_eq!(last, Some(Ok("last")));
    }
}
