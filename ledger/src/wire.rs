//! The benchmark's own NDJSON client and the request/response shapes it
//! speaks.
//!
//! The client is deliberately minimal and independent of
//! `skyup_serve::Client`: each request line goes out in one `write`
//! (body and newline together) over a socket with default options — no
//! `TCP_NODELAY`, no `TCP_QUICKACK`. That keeps the load generator fixed
//! when the product's own client changes, and it leaves any Nagle /
//! delayed-ACK interaction on the server's side of the socket visible in
//! the round trip.

use skyup_obs::json::{parse, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Longest wait for one response line; far above any request the
/// workloads send.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// One kept-alive connection with exactly one request outstanding at a
/// time (the server answers a connection's lines in order).
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    line: String,
}

impl Conn {
    /// Connects, retrying refusals for up to `patience` (a child that
    /// printed its address is listening, but a retry costs nothing).
    pub fn connect(addr: &str, patience: Duration) -> Result<Conn, String> {
        let start = Instant::now();
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    // A wedged server fails the run instead of hanging it.
                    stream
                        .set_read_timeout(Some(RESPONSE_TIMEOUT))
                        .map_err(|e| format!("{addr}: {e}"))?;
                    let writer = stream.try_clone().map_err(|e| format!("{addr}: {e}"))?;
                    return Ok(Conn {
                        reader: BufReader::new(stream),
                        writer,
                        out: Vec::new(),
                        line: String::new(),
                    });
                }
                Err(_) if start.elapsed() < patience => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(format!("{addr}: {e}")),
            }
        }
    }

    /// Sends `line` plus its newline in a single write and returns the
    /// response line without its newline.
    pub fn request(&mut self, line: &str) -> Result<&str, String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("connection closed before a response".into());
        }
        Ok(self.line.trim_end())
    }

    /// Sends a request and parses the response, failing on `ok: false`.
    pub fn call(&mut self, line: &str) -> Result<Json, String> {
        let resp = self.request(line)?;
        let doc = parse(resp).map_err(|e| format!("bad response: {e}"))?;
        if !matches!(doc.get("ok"), Some(Json::Bool(true))) {
            return Err(format!("{line} -> {resp}"));
        }
        Ok(doc)
    }
}

fn point_json(p: &[f64]) -> Json {
    Json::Arr(p.iter().map(|&v| Json::Num(v)).collect())
}

pub fn query_line(products: &[Vec<f64>], k: usize) -> String {
    Json::obj(vec![
        ("op", Json::Str("query".into())),
        (
            "products",
            Json::Arr(products.iter().map(|p| point_json(p)).collect()),
        ),
        ("k", Json::Uint(k as u64)),
    ])
    .render()
}

pub fn add_line(point: &[f64]) -> String {
    Json::obj(vec![
        ("op", Json::Str("add".into())),
        ("point", point_json(point)),
    ])
    .render()
}

pub fn remove_line(cid: u64) -> String {
    Json::obj(vec![
        ("op", Json::Str("remove".into())),
        ("cid", Json::Uint(cid)),
    ])
    .render()
}

pub fn verb_line(op: &str) -> String {
    Json::obj(vec![("op", Json::Str(op.into()))]).render()
}

pub fn trace_line(n: u64) -> String {
    Json::obj(vec![
        ("op", Json::Str("trace".into())),
        ("n", Json::Uint(n)),
    ])
    .render()
}

/// A top-k answer reduced to the bits that must match an oracle:
/// `(product index, cost bits, upgraded coordinate bits)` in rank order.
pub type AnswerBits = Vec<(u64, u64, Vec<u64>)>;

/// Reads the `results` of a query response as [`AnswerBits`].
pub fn answer_bits(doc: &Json) -> Result<AnswerBits, String> {
    let Some(Json::Arr(results)) = doc.get("results") else {
        return Err("query response has no results".into());
    };
    results
        .iter()
        .map(|r| {
            let index = r
                .get("index")
                .and_then(Json::as_u64)
                .ok_or("result without an index")?;
            let cost = r
                .get("cost")
                .and_then(Json::as_f64)
                .ok_or("result without a cost")?;
            let upgraded = match r.get("upgraded") {
                Some(Json::Arr(vs)) => vs
                    .iter()
                    .map(|v| v.as_f64().map(f64::to_bits).ok_or("non-numeric coordinate"))
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err("result without upgraded coordinates".to_string()),
            };
            Ok((index, cost.to_bits(), upgraded))
        })
        .collect()
}

/// The same reduction of an in-process answer.
pub fn response_bits(resp: &skyup_serve::QueryResponse) -> AnswerBits {
    resp.results
        .iter()
        .map(|a| {
            (
                a.index as u64,
                a.cost.to_bits(),
                a.upgraded.iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

/// Whether a response reports an exact (not partial or shed) answer.
pub fn is_exact(doc: &Json) -> bool {
    !matches!(
        doc.get("completion").and_then(Json::as_str),
        Some("partial")
    )
}
