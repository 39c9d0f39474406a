// Per-layer drivers: each times one simulator layer through its public
// classes, in a closed harness whose hook above the layer does nothing but
// keep the harness running. Every number is host nanoseconds per operation
// of the layer's self time: the layer plus the event-loop dispatches of the
// events it schedules itself, and nothing above it. Where the harness has
// to schedule events of its own (arrivals, a path delay), their cost,
// measured on the same event shape with the layer taken out, is
// subtracted.
//
// The harnesses replay a TrafficShape: the traffic of a workload's own
// traced calls, read off their registry series and per-type dispatch
// counts (driver.cc, ShapeOf). Fixed sizes, delays and periods are the
// simulator's own defaults, read from its config structs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/time.h"
#include "transport/congestion_control.h"
#include "wifi/queue_discipline.h"

namespace kwikr::perfbench {

/// One class of loop events: its share of dispatches and the range its
/// scheduling delays are drawn from (uniformly).
struct DelayClass {
  double share = 0.0;
  sim::Duration lo = 0;
  sim::Duration hi = 0;
};

/// The traffic a driver replays. README.md ("Driver inputs") gives the
/// series or config field each member comes from.
struct TrafficShape {
  // sim
  std::vector<DelayClass> loop_mix;  ///< by dispatched event type.
  double pending = 1.0;       ///< events in the loop at once (Little's law).
  double armed_timers = 1.0;  ///< RTO and probe-timeout timers per call.
  // wifi
  std::int64_t phy_rate_bps = 0;
  int stations = 1;             ///< uplink contenders (call + cross).
  bool ap_backlogged = false;   ///< the AP BE queue dropped frames.
  double ap_frames_per_s = 0.0;      ///< AP deliveries / simulated second.
  double uplink_per_ap_frame = 0.0;  ///< other deliveries per AP delivery.
  std::int32_t downlink_bytes = 0;
  std::int32_t uplink_bytes = 0;
  // qdisc
  double ap_offered_per_s = 0.0;  ///< AP BE frames offered / sim second.
  int flows = 1;                  ///< flows hashed by FQ-CoDel.
  // net
  double wire_packets_per_s = 0.0;
  // transport, rtc, core
  double tcp_loss = 0.0;      ///< retransmissions / segments sent.
  double media_per_s = 0.0;   ///< media packets / simulated second.
  /// Median Ping-Pair Tq: the AP best-effort queueing delay the calls saw.
  sim::Duration tq = 0;
};

/// sim::EventLoop: schedule + dispatch of one no-op event, with the
/// shape's pending population and delay mix.
double SimDispatchNs(const TrafficShape& shape, std::uint64_t seed);
/// sim::EventLoop: one timer rearm (Cancel of the pending timer plus
/// ScheduleIn of its replacement), the pattern TCP RTOs and probe timeouts
/// follow, among the shape's pending population.
double SimCancelNs(const TrafficShape& shape, std::uint64_t seed);

/// wifi::Channel: self time per transmitted frame (deliveries plus retry
/// drops) of the shape's cell. Paced AP arrivals are charged at
/// `hook_event_ns` each.
double WifiFrameNs(const TrafficShape& shape, std::uint64_t seed,
                   double hook_event_ns);

/// wifi::MakeQueueDiscipline(kind) on the AP best-effort contender: self
/// time per offered frame, as the paired difference against the same
/// arrivals enqueued straight into the channel.
double QdiscOpNs(wifi::QdiscKind kind, const TrafficShape& shape,
                 std::uint64_t seed);

/// net::WiredLink: self time per packet carried (serialization + propagation
/// events).
double NetPacketNs(const TrafficShape& shape);

/// transport::TcpRenoSender/Receiver with `cc`: self time per acknowledged
/// segment over the shape's path and loss.
double TcpSegmentNs(transport::CcAlgorithm cc, const TrafficShape& shape,
                    std::uint64_t seed);

/// rtc::BandwidthEstimator::OnPacket: one media packet into the UKF.
double RtcUpdateNs(const TrafficShape& shape, std::uint64_t seed);

/// core::PingPairProber::OnFlowPacket/OnReply, which run SelfDelay and
/// CrossDelay on completion: one dual Ping-Pair round.
double CoreAttributionNs(const TrafficShape& shape, std::uint64_t seed);

/// scenario::EncodeWildCallLine / DecodeWildCallLine over `lines`.
struct CodecNs {
  double encode = 0.0;
  double decode = 0.0;
};
CodecNs ScenarioCodecNs(const std::vector<std::string>& lines);

/// obs::SerializeRegistry of `registry`, milliseconds (median of repeats).
double ObsSerializeMs(const obs::MetricsRegistry& registry);

}  // namespace kwikr::perfbench
