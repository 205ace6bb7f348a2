//! A minimal blocking client over one TCP connection — what `loadgen`,
//! the CI smoke test, and the integration tests all speak through.

use crate::protocol::{read_frame, write_frame, PredictRequest, Request, Response, StatsSnapshot};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One connection to a `camp-serve` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Connect/read/write failed, or the server closed mid-frame.
    Io(String),
    /// The server's response did not decode.
    BadResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(detail) => write!(f, "i/o error: {detail}"),
            ClientError::BadResponse(detail) => write!(f, "bad response: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl Client {
    /// Connects, optionally with a socket read/write timeout.
    pub fn connect(addr: SocketAddr, timeout: Option<Duration>) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| ClientError::Io(e.to_string()))?;
        // Requests leave in one write each; send them without waiting for
        // the previous answer's ACK.
        stream.set_nodelay(true).map_err(|e| ClientError::Io(e.to_string()))?;
        stream.set_read_timeout(timeout).map_err(|e| ClientError::Io(e.to_string()))?;
        stream.set_write_timeout(timeout).map_err(|e| ClientError::Io(e.to_string()))?;
        let reader = stream.try_clone().map_err(|e| ClientError::Io(e.to_string()))?;
        Ok(Client {
            reader: BufReader::new(reader),
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one request frame and reads one response frame.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, &request.to_json().render())
            .map_err(|e| ClientError::Io(e.to_string()))?;
        self.read_response()
    }

    /// Reads one response frame (for out-of-band responses, e.g. the
    /// `overloaded` answer a shed connection receives without asking).
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        match read_frame(&mut self.reader) {
            Ok(Some(body)) => Response::from_text(&body).map_err(ClientError::BadResponse),
            Ok(None) => Err(ClientError::Io("server closed the connection".to_string())),
            Err(error) => Err(ClientError::Io(error.to_string())),
        }
    }

    /// Convenience: one `predict` round trip.
    pub fn predict(&mut self, request: PredictRequest) -> Result<Response, ClientError> {
        self.call(&Request::Predict(request))
    }

    /// Convenience: one `stats` round trip, insisting on a stats answer.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(snapshot) => Ok(snapshot),
            other => Err(ClientError::BadResponse(format!("expected stats, got {other:?}"))),
        }
    }

    /// Convenience: ask the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(ClientError::BadResponse(format!("expected ok, got {other:?}"))),
        }
    }
}
