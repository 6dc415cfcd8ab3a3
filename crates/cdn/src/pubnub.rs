//! The PubNub-style message channel (Fig 8(c)): hearts and comments travel
//! on a path entirely separate from video, fanned out to channel
//! subscribers with per-subscriber delivery delays.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;

use livescope_net::Link;
use livescope_proto::message::ChatEvent;
use livescope_sim::{SimDuration, SimTime};
use livescope_telemetry::{CounterId, Telemetry, TraceEvent};

use crate::ids::{BroadcastId, UserId};

/// A message delivery to one subscriber.
#[derive(Clone, Debug)]
pub struct MessageDelivery {
    pub subscriber: UserId,
    pub event: ChatEvent,
    /// `None` when the subscriber's link dropped the message.
    pub delay: Option<SimDuration>,
}

/// The message bus.
#[derive(Default)]
pub struct PubNub {
    channels: BTreeMap<BroadcastId, Vec<(UserId, Link)>>,
    /// Events accepted for publication.
    pub published: u64,
    /// Deliveries attempted (events × subscribers).
    pub deliveries_attempted: u64,
    telemetry: Telemetry,
    c_published: CounterId,
    c_deliveries: CounterId,
    c_dropped: CounterId,
}

impl PubNub {
    /// An empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches telemetry: publish/delivery/drop counters and a
    /// `CommentFanout` trace event per publish.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.c_published = telemetry.counter("pubnub.published");
        self.c_deliveries = telemetry.counter("pubnub.deliveries");
        self.c_dropped = telemetry.counter("pubnub.dropped");
        self.telemetry = telemetry.clone();
    }

    /// Subscribes `user` to a broadcast's channel over `link`.
    pub fn subscribe(&mut self, broadcast: BroadcastId, user: UserId, link: Link) {
        self.channels
            .entry(broadcast)
            .or_default()
            .push((user, link));
    }

    /// Unsubscribes (no-op if absent).
    pub fn unsubscribe(&mut self, broadcast: BroadcastId, user: UserId) {
        if let Some(subs) = self.channels.get_mut(&broadcast) {
            subs.retain(|(u, _)| *u != user);
        }
    }

    /// Subscriber count for a channel.
    pub fn subscriber_count(&self, broadcast: BroadcastId) -> usize {
        self.channels.get(&broadcast).map_or(0, Vec::len)
    }

    /// Publishes an event to its broadcast channel, fanning out to every
    /// subscriber *including the sender* (Periscope shows your own hearts
    /// back to you via the channel; the experiment code filters if needed).
    pub fn publish(
        &mut self,
        now: SimTime,
        event: ChatEvent,
        rng: &mut SmallRng,
    ) -> Vec<MessageDelivery> {
        self.published += 1;
        self.telemetry.add(self.c_published, 1);
        let wire_len = event.encode().len();
        let Some(subs) = self.channels.get_mut(&BroadcastId(event.broadcast_id)) else {
            self.telemetry.emit(
                now.as_micros(),
                TraceEvent::CommentFanout {
                    broadcast: event.broadcast_id,
                    from_user: event.user_id,
                    receivers: 0,
                },
            );
            return Vec::new();
        };
        let mut out = Vec::with_capacity(subs.len());
        let mut dropped = 0u64;
        for (user, link) in subs.iter_mut() {
            self.deliveries_attempted += 1;
            let delay = link.transmit(rng, now, wire_len).delay();
            dropped += delay.is_none() as u64;
            out.push(MessageDelivery {
                subscriber: *user,
                event: event.clone(),
                delay,
            });
        }
        self.telemetry.add(self.c_deliveries, out.len() as u64);
        self.telemetry.add(self.c_dropped, dropped);
        self.telemetry.emit(
            now.as_micros(),
            TraceEvent::CommentFanout {
                broadcast: event.broadcast_id,
                from_user: event.user_id,
                receivers: out.len() as u32,
            },
        );
        out
    }

    /// Drops a channel (broadcast ended).
    pub fn close_channel(&mut self, broadcast: BroadcastId) {
        self.channels.remove(&broadcast);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livescope_net::geo::GeoPoint;
    use livescope_net::{AccessLink, FaultConfig};
    use livescope_proto::message::EventKind;
    use rand::SeedableRng;

    const B: BroadcastId = BroadcastId(3);

    fn link() -> Link {
        Link::device_path(
            &GeoPoint::new(37.77, -122.42),
            &GeoPoint::new(39.04, -77.49),
            AccessLink::StableWifi,
        )
    }

    fn heart(user: u64) -> ChatEvent {
        ChatEvent {
            broadcast_id: B.0,
            user_id: user,
            ts_us: 1000,
            kind: EventKind::Heart,
        }
    }

    #[test]
    fn publish_fans_out_to_all_subscribers() {
        let mut bus = PubNub::new();
        let mut rng = SmallRng::seed_from_u64(1);
        for u in 0..4 {
            bus.subscribe(B, UserId(u), link());
        }
        let deliveries = bus.publish(SimTime::ZERO, heart(0), &mut rng);
        assert_eq!(deliveries.len(), 4);
        assert!(deliveries.iter().all(|d| d.delay.is_some()));
        assert_eq!(bus.published, 1);
        assert_eq!(bus.deliveries_attempted, 4);
    }

    #[test]
    fn publish_to_empty_channel_is_empty() {
        let mut bus = PubNub::new();
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(bus.publish(SimTime::ZERO, heart(0), &mut rng).is_empty());
        assert_eq!(bus.published, 1);
    }

    #[test]
    fn unsubscribe_and_close_remove_receivers() {
        let mut bus = PubNub::new();
        let mut rng = SmallRng::seed_from_u64(1);
        bus.subscribe(B, UserId(1), link());
        bus.subscribe(B, UserId(2), link());
        bus.unsubscribe(B, UserId(1));
        assert_eq!(bus.subscriber_count(B), 1);
        bus.close_channel(B);
        assert!(bus.publish(SimTime::ZERO, heart(0), &mut rng).is_empty());
    }

    #[test]
    fn lossy_links_drop_some_deliveries() {
        let mut bus = PubNub::new();
        let mut rng = SmallRng::seed_from_u64(2);
        bus.subscribe(
            B,
            UserId(1),
            link().with_faults(FaultConfig {
                drop_chance: 1.0,
                ..FaultConfig::none()
            }),
        );
        let deliveries = bus.publish(SimTime::ZERO, heart(0), &mut rng);
        assert_eq!(deliveries.len(), 1);
        assert!(deliveries[0].delay.is_none());
    }

    #[test]
    fn events_survive_the_trip_intact() {
        let mut bus = PubNub::new();
        let mut rng = SmallRng::seed_from_u64(3);
        bus.subscribe(B, UserId(1), link());
        let comment = ChatEvent {
            broadcast_id: B.0,
            user_id: 42,
            ts_us: 9_000,
            kind: EventKind::Comment("nice puddle".into()),
        };
        let deliveries = bus.publish(SimTime::ZERO, comment.clone(), &mut rng);
        assert_eq!(deliveries[0].event, comment);
    }
}
