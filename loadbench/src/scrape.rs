//! Reading the daemon's own counters: `GET /metrics` (the
//! `ucfg_support::obs` registry export, always on under `ucfg serve`)
//! and `GET /healthz`. Scrapes run between phases and are not counted
//! as operations.

use crate::wire::Conn;
use std::collections::BTreeMap;
use std::time::Duration;
use ucfg_serve::Json;

/// A flattened `/metrics` + `/healthz` snapshot: counters, volatile
/// counters and gauges by name; histograms as `<name>.count` and
/// `<name>.total_ns`; `/healthz` integers as `healthz.<field>`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(pub BTreeMap<String, f64>);

impl Scrape {
    /// Flatten a `/metrics` body.
    pub fn parse_metrics(body: &str) -> Result<Scrape, String> {
        let v = Json::parse(body).map_err(|e| format!("/metrics: {e}"))?;
        let mut out = BTreeMap::new();
        let mut flat = |obj: Option<&Json>| {
            if let Some(Json::Obj(fields)) = obj {
                for (k, val) in fields {
                    if let Json::Int(i) = val {
                        out.insert(k.clone(), *i as f64);
                    }
                }
            }
        };
        flat(v.get("counters"));
        flat(v.get("gauges"));
        let volatile = v
            .get("volatile")
            .ok_or("/metrics has no volatile stratum")?;
        flat(volatile.get("counters"));
        if let Some(Json::Obj(timings)) = volatile.get("timings") {
            for (k, h) in timings {
                for field in ["count", "total_ns"] {
                    if let Some(Json::Int(i)) = h.get(field) {
                        out.insert(format!("{k}.{field}"), *i as f64);
                    }
                }
            }
        }
        if !out.contains_key("serve.requests.metrics") {
            return Err("/metrics does not count itself; not a ucfg serve export?".into());
        }
        Ok(Scrape(out))
    }

    /// A value (0 when the daemon never created it).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every value whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// `self − earlier`, name by name (gauges included, so read those
    /// from a single snapshot).
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        Scrape(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.get(k)))
                .collect(),
        )
    }
}

fn get(conn: &mut Conn, path: &str) -> Result<String, String> {
    let wire = format!("GET {path} HTTP/1.1\r\nHost: loadbench\r\nContent-Length: 0\r\n\r\n");
    let r = conn
        .roundtrip(wire.as_bytes(), Duration::from_secs(10))
        .map_err(|e| format!("{path}: {e}"))?;
    if r.status != 200 {
        return Err(format!("{path}: status {}", r.status));
    }
    Ok(r.body)
}

/// Scrape `/metrics` and `/healthz` over `conn`.
pub fn scrape(conn: &mut Conn) -> Result<Scrape, String> {
    let mut s = Scrape::parse_metrics(&get(conn, "/metrics")?)?;
    let h = Json::parse(&get(conn, "/healthz")?).map_err(|e| format!("/healthz: {e}"))?;
    if let Json::Obj(fields) = h {
        for (k, v) in fields {
            if let Json::Int(i) = v {
                s.0.insert(format!("healthz.{k}"), i as f64);
            }
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucfg_serve::{ServeConfig, Server};

    #[test]
    fn scrape_parses_the_daemons_real_output() {
        ucfg_support::obs::set_enabled(true);
        let server = Server::bind(ServeConfig {
            port: 0,
            shards: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle();
        let daemon = std::thread::spawn(move || server.run().unwrap());

        let mut c = Conn::connect(&addr).unwrap();
        let before = scrape(&mut c).unwrap();
        let body = r#"{"grammar":"S -> a S | b","word":"aab"}"#;
        let wire = format!(
            "POST /parse HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        for _ in 0..3 {
            let r = c
                .roundtrip(wire.as_bytes(), Duration::from_secs(10))
                .unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
        }
        let after = scrape(&mut c).unwrap();
        let d = after.since(&before);
        assert_eq!(d.get("serve.requests.parse"), 3.0);
        assert_eq!(d.get("serve.cache.misses") + d.get("serve.cache.hits"), 3.0);
        assert!(d.get("serve.batches") >= 1.0);
        assert!(d.get("serve.batch.size.count") >= 1.0);
        assert!(d.sum_prefix("serve.shard.") >= 3.0);
        assert!(after.get("healthz.shards") == 2.0);
        assert!(after.0.contains_key("healthz.flush_writes"));
        assert!(Scrape::parse_metrics("{\"counters\":{}}").is_err());

        handle.shutdown();
        daemon.join().unwrap();
    }
}
