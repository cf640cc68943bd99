//! A hand-rolled HTTP/1.1 status endpoint over `std::net::TcpListener`.
//!
//! No framework, no async runtime — the farm serves a handful of
//! read-only routes from a single accept loop, which is all a CI
//! status page needs and keeps the dependency count at zero:
//!
//! * `GET /status` — the farm status document (JSON).
//! * `GET /badge.svg` — an overall build badge.
//! * `GET /tenants/<t>/builds` — the tenant's build history (JSON),
//!   including queue-wait and retry provenance.
//! * `GET /tenants/<t>/badge.svg` — the tenant's badge.
//! * `GET /tenants/<t>/timeline.svg` — the tenant's job timeline,
//!   rendered by popper-trace from the farm's job records.
//!
//! Every response closes the connection (`Connection: close`), so the
//! handler never juggles keep-alive state; a status poller opening a
//! socket per poll is well within this server's budget. Each connection
//! has two seconds to send its request and take the response, so a
//! client that connects and goes quiet delays the next one by at most
//! that long.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one connection may take, request read and response written
/// together, before it is dropped. Connections are served one at a time,
/// so this bounds how long any client, and `FarmServer::stop`'s wake-up,
/// waits behind another.
pub(crate) const CONNECTION_DEADLINE: Duration = Duration::from_secs(2);

/// What the HTTP layer needs from the farm: snapshots, never locks held
/// across a response. Implemented by the farm's inner state.
pub(crate) trait FarmView: Send + Sync + 'static {
    /// The `/status` document, already serialized.
    fn status_json(&self) -> String;
    /// Latest overall build state: `None` = no builds yet.
    fn overall_passing(&self) -> Option<bool>;
    /// Tenant's latest build state; outer `None` = unknown tenant.
    fn tenant_passing(&self, tenant: &str) -> Option<Option<bool>>;
    /// Tenant's build history as JSON; `None` = unknown tenant.
    fn tenant_builds_json(&self, tenant: &str) -> Option<String>;
    /// Tenant's job timeline as SVG; `None` = unknown tenant.
    fn tenant_timeline_svg(&self, tenant: &str) -> Option<String>;
}

/// Render a build badge: a two-cell SVG (label, status) in the familiar
/// README style. `passing=None` renders the grey "unknown" badge.
pub fn badge_svg(label: &str, passing: Option<bool>) -> String {
    let (status, color) = match passing {
        Some(true) => ("passing", "#4c1"),
        Some(false) => ("failing", "#e05d44"),
        None => ("unknown", "#9f9f9f"),
    };
    let char_w = 7.0;
    let pad = 10.0;
    let lw = (label.len() as f64 * char_w + pad).ceil();
    let sw = (status.len() as f64 * char_w + pad).ceil();
    let (w, lx, sx) = (lw + sw, lw / 2.0, lw + sw / 2.0);
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"20\" role=\"img\" aria-label=\"{label}: {status}\">\
         <rect width=\"{lw}\" height=\"20\" fill=\"#555\"/>\
         <rect x=\"{lw}\" width=\"{sw}\" height=\"20\" fill=\"{color}\"/>\
         <g fill=\"#fff\" text-anchor=\"middle\" font-family=\"Verdana,sans-serif\" font-size=\"11\">\
         <text x=\"{lx}\" y=\"14\">{label}</text>\
         <text x=\"{sx}\" y=\"14\">{status}</text>\
         </g></svg>"
    )
}

/// The running status server. Binding to port 0 picks a free port;
/// [`FarmServer::addr`] reports the actual one.
pub struct FarmServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl FarmServer {
    pub(crate) fn start(view: Arc<dyn FarmView>, addr: &str) -> Result<FarmServer, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("farm-http".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        // Serve inline: one request at a time is plenty
                        // for a status endpoint, and it keeps the
                        // thread count fixed.
                        let _ = handle_connection(stream, view.as_ref());
                    }
                }
            })
            .map_err(|e| e.to_string())?;
        Ok(FarmServer { addr, shutdown, handle: Some(handle) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FarmServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn handle_connection(mut stream: TcpStream, view: &dyn FarmView) -> io::Result<()> {
    let deadline = Instant::now() + CONNECTION_DEADLINE;
    // The time the connection has left; an error once it has none.
    let left = || {
        deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| io::Error::from(io::ErrorKind::TimedOut))
    };
    // Read up to the header terminator; a status GET has no body worth
    // waiting for. Bounded buffer: an oversized request is cut off and
    // served on whatever request line arrived.
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        stream.set_read_timeout(Some(left()?))?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        // Only the bytes this read appended — plus up to three carried
        // over from the previous read, in case the terminator straddles
        // the boundary — can contain a new "\r\n\r\n". Rescanning the
        // whole buffer would be quadratic on slow-trickle requests.
        let scan_from = buf.len().saturating_sub(3);
        buf.extend_from_slice(&chunk[..n]);
        if buf[scan_from..].windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    let response = respond(&buf, view);
    let mut rest = response.as_bytes();
    while !rest.is_empty() {
        stream.set_write_timeout(Some(left()?))?;
        match stream.write(rest)? {
            0 => return Err(io::ErrorKind::WriteZero.into()),
            n => rest = &rest[n..],
        }
    }
    Ok(())
}

/// The whole response to the request bytes `request`.
fn respond(request: &[u8], view: &dyn FarmView) -> String {
    let request = String::from_utf8_lossy(request);
    let line = request.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or("/"));
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain", "only GET is served\n".to_string())
    } else {
        route(path, view)
    };
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )
}

fn route(path: &str, view: &dyn FarmView) -> (&'static str, &'static str, String) {
    const OK: &str = "200 OK";
    // Badge caches cache-bust with query strings (`/badge.svg?v=1`);
    // routing is on the path alone. Fragments never reach a server in a
    // well-formed request but cost nothing to tolerate.
    let path = path.split(['?', '#']).next().unwrap_or(path);
    match path {
        "/status" => (OK, "application/json", view.status_json()),
        "/badge.svg" => (OK, "image/svg+xml", badge_svg("farm", view.overall_passing())),
        _ => {
            if let Some(rest) = path.strip_prefix("/tenants/") {
                let (tenant, resource) = rest.split_once('/').unwrap_or((rest, ""));
                let found = match resource {
                    "builds" => view.tenant_builds_json(tenant).map(|b| (b, "application/json")),
                    "badge.svg" => view
                        .tenant_passing(tenant)
                        .map(|p| (badge_svg(tenant, p), "image/svg+xml")),
                    "timeline.svg" => {
                        view.tenant_timeline_svg(tenant).map(|s| (s, "image/svg+xml"))
                    }
                    _ => None,
                };
                if let Some((body, ct)) = found {
                    return (OK, ct, body);
                }
            }
            ("404 Not Found", "text/plain", format!("no route for {path}\n"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeView;
    impl FarmView for FakeView {
        fn status_json(&self) -> String {
            "{\"service\": \"popper-farm\"}".into()
        }
        fn overall_passing(&self) -> Option<bool> {
            Some(true)
        }
        fn tenant_passing(&self, tenant: &str) -> Option<Option<bool>> {
            (tenant == "t1").then_some(Some(false))
        }
        fn tenant_builds_json(&self, tenant: &str) -> Option<String> {
            (tenant == "t1").then(|| "{\"builds\": []}".into())
        }
        fn tenant_timeline_svg(&self, tenant: &str) -> Option<String> {
            (tenant == "t1").then(|| "<svg></svg>".into())
        }
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(format!("GET {path} HTTP/1.1\r\nHost: farm\r\n\r\n").as_bytes()).unwrap();
        let mut response = String::new();
        s.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.lines().next().unwrap().to_string(), body.to_string())
    }

    #[test]
    fn routes_and_shutdown() {
        let server = FarmServer::start(Arc::new(FakeView), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        let (status, body) = get(addr, "/status");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("popper-farm"));
        let (status, body) = get(addr, "/badge.svg");
        assert!(status.contains("200"));
        assert!(body.contains("passing"));
        let (status, body) = get(addr, "/tenants/t1/badge.svg");
        assert!(status.contains("200"));
        assert!(body.contains("failing"));
        let (status, _) = get(addr, "/tenants/t1/builds");
        assert!(status.contains("200"));
        let (status, _) = get(addr, "/tenants/t1/timeline.svg");
        assert!(status.contains("200"));
        let (status, _) = get(addr, "/tenants/ghost/builds");
        assert!(status.contains("404"), "{status}");
        let (status, _) = get(addr, "/nope");
        assert!(status.contains("404"));
        server.stop();
    }

    #[test]
    fn query_strings_do_not_404() {
        let server = FarmServer::start(Arc::new(FakeView), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        // Exactly what badge caches append for cache-busting.
        let (status, body) = get(addr, "/badge.svg?v=1");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("passing"));
        let (status, _) = get(addr, "/status?pretty=1&ts=1723");
        assert!(status.contains("200"), "{status}");
        let (status, body) = get(addr, "/tenants/t1/badge.svg?cachebust=9");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("failing"));
        // A bare '?' and unknown paths still behave.
        let (status, _) = get(addr, "/badge.svg?");
        assert!(status.contains("200"), "{status}");
        let (status, _) = get(addr, "/nope?x=1");
        assert!(status.contains("404"), "{status}");
        server.stop();
    }

    #[test]
    fn trickled_request_bytes_round_trip() {
        let server = FarmServer::start(Arc::new(FakeView), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        // Dribble the request a few bytes per write, with the header
        // terminator straddling a write boundary, to exercise the
        // incremental terminator scan.
        let request = b"GET /status HTTP/1.1\r\nHost: farm\r\nX-Pad: aaaa\r\n\r\n";
        let mut s = TcpStream::connect(addr).unwrap();
        for part in request.chunks(3) {
            s.write_all(part).unwrap();
            s.flush().unwrap();
        }
        let mut response = String::new();
        s.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("popper-farm"));
        server.stop();
    }

    #[test]
    fn a_silent_client_delays_the_next_one_by_at_most_the_deadline() {
        let server = FarmServer::start(Arc::new(FakeView), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        // Connects first and never sends a byte.
        let silent = TcpStream::connect(addr).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let fetch = std::thread::spawn(move || {
            tx.send(get(addr, "/badge.svg")).ok();
        });
        let (status, body) =
            rx.recv_timeout(CONNECTION_DEADLINE * 5).expect("the badge fetch waited behind the silent client");
        fetch.join().unwrap();
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("passing"));
        drop(silent);
        server.stop();
    }

    #[test]
    fn badge_states_render() {
        for (state, word) in
            [(Some(true), "passing"), (Some(false), "failing"), (None, "unknown")]
        {
            let svg = badge_svg("build", state);
            assert!(svg.starts_with("<svg"), "{svg}");
            assert!(svg.contains(word));
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any request bytes get a well-formed response: no panic.
            #[test]
            fn any_request_bytes_get_a_response(
                bytes in proptest::collection::vec(any::<u8>(), 0..300),
                path in "/[a-z/.?#]{0,24}",
                get in any::<bool>(),
            ) {
                for request in [bytes.clone(), [format!("GET {path} HTTP/1.1\r\n").as_bytes(), &bytes].concat()] {
                    let response = respond(if get { &request } else { &bytes }, &FakeView);
                    prop_assert!(response.starts_with("HTTP/1.1 "), "{response}");
                    let (head, body) = response.split_once("\r\n\r\n").unwrap();
                    prop_assert!(head.contains(&format!("Content-Length: {}", body.len())), "{head}");
                }
            }
        }
    }
}
