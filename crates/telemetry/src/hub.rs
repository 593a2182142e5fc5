//! The telemetry hub: the handle a server keeps to its observability.
//!
//! A [`TelemetryHub`] owns the bus its fleet publishes into. Publishers
//! get [`TelemetryHub::bus`]; scrapers read [`TelemetryHub::registry`],
//! which the bus keeps current on every publish. No thread runs behind
//! it and there is nothing to start or stop.

use crate::bus::TelemetryBus;
use crate::metrics::MetricsRegistry;
use std::sync::Arc;

/// The assembled observability pipeline (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct TelemetryHub {
    bus: Arc<TelemetryBus>,
}

impl TelemetryHub {
    /// A hub over a default-sized bus.
    pub fn new() -> TelemetryHub {
        TelemetryHub::default()
    }

    /// The publish side.
    pub fn bus(&self) -> &Arc<TelemetryBus> {
        &self.bus
    }

    /// The aggregate side: the bus's own registry.
    pub fn registry(&self) -> &MetricsRegistry {
        self.bus.registry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TelemetryEvent;

    #[test]
    fn registry_is_current_when_publish_returns() {
        let hub = TelemetryHub::new();
        for home in 0..10 {
            hub.bus()
                .publish(TelemetryEvent::HomesCreated { homes: vec![home] });
            assert_eq!(hub.registry().counter("homes_created_total"), home + 1);
        }
        assert_eq!(hub.bus().published(), 10);
    }
}
