#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/ping_pair.h"
#include "net/packet.h"
#include "net/wired_link.h"
#include "obs/registry_io.h"
#include "rtc/bandwidth_estimator.h"
#include "rtc/media.h"
#include "scenario/call_experiment.h"
#include "scenario/wild_population.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "transport/tcp_reno.h"
#include "wifi/channel.h"
#include "wifi/edca.h"

namespace kwikr::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double NsSince(Clock::time_point begin) {
  return std::chrono::duration<double, std::nano>(Clock::now() - begin)
      .count();
}

/// Median of `reps` repetitions of `fn()`: one slow repetition (a page
/// fault, a neighbour's burst) does not move the reported figure.
template <typename Fn>
double MedianOf(int reps, Fn&& fn) {
  std::vector<double> values;
  for (int i = 0; i < reps; ++i) values.push_back(fn());
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

constexpr int kReps = 3;

/// Simulated time in which a harness sees about `target` operations at
/// `per_s` operations per simulated second, within [1 s, 120 s].
sim::Duration SimTimeFor(double target, double per_s) {
  const double s = std::clamp(target / std::max(per_s, 1e-9), 1.0, 120.0);
  return static_cast<sim::Duration>(s * static_cast<double>(sim::Seconds(1)));
}

// ------------------------------------------------------------------ sim ----

/// 4096 scheduling delays drawn from the shape's loop mix.
std::vector<sim::Duration> DelayMix(const TrafficShape& shape,
                                    std::uint64_t seed) {
  sim::Rng rng(seed);
  double total = 0.0;
  for (const auto& c : shape.loop_mix) total += c.share;
  std::vector<sim::Duration> delays(4096, 0);
  if (total <= 0.0) return delays;
  for (auto& d : delays) {
    double u = rng.UniformDouble() * total;
    for (const auto& c : shape.loop_mix) {
      if (u < c.share || &c == &shape.loop_mix.back()) {
        d = c.lo == c.hi ? c.lo : rng.UniformInt(c.lo, c.hi);
        break;
      }
      u -= c.share;
    }
  }
  return delays;
}

/// A self-rescheduling no-op event chain: the hook above the loop does
/// nothing but keep one event of the population alive.
struct Ticker {
  sim::EventLoop* loop = nullptr;
  const std::vector<sim::Duration>* delays = nullptr;
  std::size_t cursor = 0;
  std::uint64_t remaining = 0;

  void Fire() {
    if (remaining == 0) return;
    --remaining;
    cursor = (cursor + 1) & (delays->size() - 1);
    loop->ScheduleIn((*delays)[cursor], "perfbench", [this] { Fire(); });
  }
};

int Count(double mean) {
  return std::max(1, static_cast<int>(std::lround(mean)));
}

/// The RTO floor the armed timers sit at (TcpSender's default).
sim::Duration ArmedTimerDelay() {
  return transport::TcpSender::Config{}.min_rto;
}

}  // namespace

double SimDispatchNs(const TrafficShape& shape, std::uint64_t seed) {
  const auto delays = DelayMix(shape, seed);
  return MedianOf(kReps, [&] {
    sim::EventLoop loop;
    const int pending = Count(shape.pending);
    std::vector<Ticker> tickers(static_cast<std::size_t>(pending));
    for (int i = 0; i < pending; ++i) {
      tickers[i] = Ticker{&loop, &delays, static_cast<std::size_t>(i * 61),
                          200'000 / static_cast<std::uint64_t>(pending)};
      tickers[i].Fire();
    }
    // The armed RTO / probe-timeout timers sit in the loop too; they are
    // rearmed long before they fire, so here they never do before the end.
    for (int i = 0; i < Count(shape.armed_timers); ++i) {
      loop.ScheduleIn(sim::Seconds(3600), [] {});
    }
    const auto begin = Clock::now();
    loop.Run();
    return NsSince(begin) / static_cast<double>(loop.executed());
  });
}

double SimCancelNs(const TrafficShape& shape, std::uint64_t seed) {
  const auto delays = DelayMix(shape, seed);
  return MedianOf(kReps, [&] {
    sim::EventLoop loop;
    const int pending = Count(shape.pending);
    std::vector<Ticker> tickers(static_cast<std::size_t>(pending));
    for (int i = 0; i < pending; ++i) {
      tickers[i] = Ticker{&loop, &delays, static_cast<std::size_t>(i * 61),
                          ~0ull};
      tickers[i].Fire();
    }
    // The population keeps the wheel as the workload does; each step
    // rearms every armed timer (as a burst of ACKs does) until at least 64
    // rearms are timed, then dispatches one event.
    const int armed = Count(shape.armed_timers);
    const int rounds = (64 + armed - 1) / armed;
    std::vector<sim::EventId> timers;
    for (int k = 0; k < armed; ++k) {
      timers.push_back(loop.ScheduleIn(ArmedTimerDelay(), [] {}));
    }
    double ns = 0.0;
    std::uint64_t rearms = 0;
    std::size_t cursor = 0;
    for (int step = 0; step < 3'000; ++step) {
      const auto begin = Clock::now();
      for (int r = 0; r < rounds; ++r) {
        for (auto& id : timers) {
          loop.Cancel(id);
          cursor = (cursor + 1) & 4095;
          id = loop.ScheduleIn(ArmedTimerDelay() + delays[cursor], [] {});
        }
      }
      ns += NsSince(begin);
      rearms += static_cast<std::uint64_t>(rounds * armed);
      loop.Step();
    }
    return ns / static_cast<double>(rearms);
  });
}

// ----------------------------------------------------------------- wifi ----

namespace {

/// One wall-clock measurement of a CellHarness.
struct CellSample {
  double wall_ns = 0.0;
  double frames = 0.0;          ///< deliveries plus retry drops.
  double offered = 0.0;         ///< AP downlink frames offered.
  double arrival_events = 0.0;  ///< the harness's own arrival events.
};

/// A one-AP cell: the AP's best-effort downlink to the call station and one
/// uplink contender per station, whose frames the downlink clocks at the
/// shape's uplink-per-AP-frame ratio (TCP ACKs, media feedback). The AP is
/// either kept backlogged (filled to its queue capacity and refilled on
/// every departure) or fed arrivals at `arrivals_per_s`, into `qdisc` when
/// one is given. Packet::flow carries the downlink flow.
class CellHarness {
 public:
  CellHarness(const TrafficShape& shape, std::uint64_t seed,
              const wifi::QdiscKind* qdisc, double arrivals_per_s)
      : shape_(shape), channel_(loop_, sim::Rng(seed)) {
    channel_.SetDropHandler(
        wifi::Channel::DropHandler::Member<&CellHarness::OnDrop>(this));
    const auto be = wifi::AccessCategory::kBestEffort;
    const wifi::EdcaParams params = wifi::DefaultEdcaParams()[wifi::Index(be)];
    ap_ = channel_.RegisterOwner(
        wifi::Channel::DeliveryHandler::Member<&CellHarness::OnUplink>(this));
    ap_contender_ = channel_.CreateContender(ap_, be, params, kCapacity);
    for (int i = 0; i < std::max(1, shape.stations); ++i) {
      const wifi::OwnerId station = channel_.RegisterOwner(
          wifi::Channel::DeliveryHandler::Member<&CellHarness::OnDownlink>(
              this));
      if (i == 0) call_station_ = station;
      uplinks_.push_back(
          channel_.CreateContender(station, be, params, kCapacity));
    }
    if (qdisc != nullptr) {
      wifi::QdiscConfig config;
      config.kind = *qdisc;
      config.hash_seed = seed;
      qdisc_ = wifi::MakeQueueDiscipline(channel_, ap_contender_, config,
                                         kCapacity);
      if (*qdisc != wifi::QdiscKind::kDropTail) {
        channel_.SetTxFeedback(
            ap_contender_,
            wifi::Channel::TxFeedback::Member<&CellHarness::OnTx>(this));
      }
    }
    if (arrivals_per_s > 0.0) {
      gap_ = std::max<sim::Duration>(
          1, static_cast<sim::Duration>(static_cast<double>(sim::Seconds(1)) /
                                        arrivals_per_s));
      loop_.ScheduleIn(0, [this] { Arrive(); });
    } else {
      for (std::size_t i = 0; i < kCapacity; ++i) OfferDownlink();
    }
  }

  CellSample Measure(sim::Duration sim_time) {
    const CellSample before = counters_;
    const auto begin = Clock::now();
    loop_.RunFor(sim_time);
    CellSample s;
    s.wall_ns = NsSince(begin);
    s.frames = counters_.frames - before.frames;
    s.offered = counters_.offered - before.offered;
    s.arrival_events = counters_.arrival_events - before.arrival_events;
    return s;
  }

 private:
  /// The AP best-effort queue depth of the scenario's testbed.
  static constexpr std::size_t kCapacity =
      scenario::ExperimentConfig{}.be_queue_capacity;

  void OfferDownlink() {
    wifi::Frame frame;
    frame.dest = call_station_;
    frame.phy_rate_bps = shape_.phy_rate_bps;
    frame.packet.protocol = net::Protocol::kTcp;
    frame.packet.size_bytes = shape_.downlink_bytes;
    const auto flow = static_cast<std::uint64_t>(counters_.offered) %
                      static_cast<std::uint64_t>(std::max(1, shape_.flows));
    frame.packet.flow = static_cast<net::FlowId>(1 + flow);
    frame.packet.src = 100 + static_cast<net::Address>(flow);
    frame.packet.dst = 7;
    frame.packet.id = static_cast<std::uint64_t>(++counters_.offered);
    if (qdisc_ != nullptr) {
      qdisc_->Enqueue(std::move(frame));
    } else {
      channel_.Enqueue(ap_contender_, std::move(frame));
    }
  }

  void Arrive() {
    ++counters_.arrival_events;
    OfferDownlink();
    loop_.ScheduleIn(gap_, [this] { Arrive(); });
  }

  /// An AP frame left the queue: refill a backlogged AP and clock the
  /// uplink.
  void OnApDeparture() {
    if (gap_ == 0) OfferDownlink();
    uplink_credit_ += shape_.uplink_per_ap_frame;
    while (uplink_credit_ >= 1.0) {
      uplink_credit_ -= 1.0;
      wifi::Frame frame;
      frame.dest = ap_;
      frame.phy_rate_bps = shape_.phy_rate_bps;
      frame.packet.size_bytes = shape_.uplink_bytes;
      channel_.Enqueue(uplinks_[next_uplink_++ % uplinks_.size()],
                       std::move(frame));
    }
  }

  void OnDownlink(wifi::Frame&& /*frame*/) {
    ++counters_.frames;
    OnApDeparture();
  }
  void OnUplink(wifi::Frame&& /*frame*/) { ++counters_.frames; }
  void OnDrop(const wifi::Frame& frame) {
    ++counters_.frames;
    if (frame.dest == call_station_) OnApDeparture();
  }
  void OnTx(const wifi::Frame& /*frame*/, bool /*delivered*/,
            int /*attempts*/) {
    qdisc_->OnTxComplete();
  }

  const TrafficShape& shape_;
  sim::EventLoop loop_;
  wifi::Channel channel_;
  std::unique_ptr<wifi::QueueDiscipline> qdisc_;
  wifi::OwnerId ap_ = 0;
  wifi::OwnerId call_station_ = 0;
  wifi::ContenderId ap_contender_ = 0;
  std::vector<wifi::ContenderId> uplinks_;
  std::size_t next_uplink_ = 0;
  double uplink_credit_ = 0.0;
  sim::Duration gap_ = 0;
  CellSample counters_;
};

}  // namespace

double WifiFrameNs(const TrafficShape& shape, std::uint64_t seed,
                   double hook_event_ns) {
  const double arrivals = shape.ap_backlogged ? 0.0 : shape.ap_frames_per_s;
  const sim::Duration sim_time = SimTimeFor(
      20'000, shape.ap_frames_per_s * (1.0 + shape.uplink_per_ap_frame));
  return MedianOf(kReps, [&] {
    CellHarness h(shape, seed, nullptr, arrivals);
    h.Measure(sim_time / 10);  // warm the rings.
    const CellSample s = h.Measure(sim_time);
    return (s.wall_ns - s.arrival_events * hook_event_ns) / s.frames;
  });
}

// ---------------------------------------------------------------- qdisc ----

double QdiscOpNs(wifi::QdiscKind kind, const TrafficShape& shape,
                 std::uint64_t seed) {
  const double offered = shape.ap_offered_per_s > 0.0 ? shape.ap_offered_per_s
                                                      : shape.ap_frames_per_s;
  const sim::Duration sim_time = SimTimeFor(18'000, offered);
  // Paired, alternating arms: the qdisc's self time is what its arm costs
  // per offered frame beyond the direct-enqueue arm on the same arrivals.
  std::vector<double> diffs;
  for (int rep = 0; rep < 5; ++rep) {
    double with = 0.0;
    double without = 0.0;
    for (int arm = 0; arm < 2; ++arm) {
      const bool qdisc_arm = (arm + rep) % 2 == 0;
      CellHarness h(shape, seed, qdisc_arm ? &kind : nullptr, offered);
      h.Measure(sim_time / 30);
      const CellSample s = h.Measure(sim_time);
      (qdisc_arm ? with : without) = s.wall_ns / s.offered;
    }
    diffs.push_back(with - without);
  }
  std::sort(diffs.begin(), diffs.end());
  return diffs[diffs.size() / 2];
}

// ------------------------------------------------------------------ net ----

namespace {

/// One wired link (the testbed's default config) carrying the shape's
/// packets in flight, each re-sent as it arrives.
class WireHarness {
 public:
  explicit WireHarness(const TrafficShape& shape)
      : link_(loop_, net::WiredLink::Config{},
              net::WiredLink::Receiver::Member<&WireHarness::OnPacket>(this)) {
    const net::WiredLink::Config config;
    packet_.size_bytes = shape.downlink_bytes;
    packet_.protocol = net::Protocol::kUdp;
    // Little's law: packets in flight = rate x time on the wire.
    const double on_wire_s = sim::ToSeconds(
        sim::TransmissionTime(std::int64_t{8} * shape.downlink_bytes,
                              config.rate_bps) +
        config.propagation);
    const int in_flight = Count(shape.wire_packets_per_s * on_wire_s);
    for (int i = 0; i < in_flight; ++i) link_.Send(packet_);
  }

  double Measure(sim::Duration sim_time) {
    const std::uint64_t before = received_;
    const auto begin = Clock::now();
    loop_.RunFor(sim_time);
    return NsSince(begin) / static_cast<double>(received_ - before);
  }

 private:
  void OnPacket(net::Packet&& /*packet*/) {
    ++received_;
    link_.Send(packet_);
  }

  sim::EventLoop loop_;
  net::WiredLink link_;
  net::Packet packet_;
  std::uint64_t received_ = 0;
};

}  // namespace

double NetPacketNs(const TrafficShape& shape) {
  return MedianOf(kReps, [&] {
    WireHarness h(shape);
    h.Measure(sim::Millis(100));
    return h.Measure(sim::Seconds(10));
  });
}

// ------------------------------------------------------------ transport ----

namespace {

/// One TCP measurement: wall time, segments acknowledged, and the path
/// events (harness, not TCP) with the simulated time they covered.
struct TcpSample {
  double wall_ns = 0.0;
  double acked = 0.0;
  double path_events = 0.0;
  double sim_s = 0.0;
};

/// One bulk TCP flow over the shape's path: data segments cross the wired
/// link and the AP queue (propagation + median Tq) and are lost with the
/// shape's loss rate; ACKs cross the wired link.
class TcpHarness {
 public:
  TcpHarness(transport::CcAlgorithm cc, const TrafficShape& shape,
             std::uint64_t seed)
      : rng_(seed),
        loss_(shape.tcp_loss),
        ack_delay_(net::WiredLink::Config{}.propagation),
        data_delay_(ack_delay_ + shape.tq) {
    transport::TcpSender::Config config;
    config.cc = cc;
    sender_ = std::make_unique<transport::TcpSender>(
        loop_, 9, 1, 2, ids_,
        [this](net::Packet p) {
          if (rng_.Bernoulli(loss_)) return;
          loop_.ScheduleIn(data_delay_, [this, p] {
            ++path_events_;
            receiver_->OnSegment(p, loop_.now());
          });
        },
        config);
    receiver_ = std::make_unique<transport::TcpRenoReceiver>(
        9, 2, 1, ids_, [this](net::Packet p) {
          loop_.ScheduleIn(ack_delay_, [this, p] {
            ++path_events_;
            sender_->OnAck(p);
          });
        });
    sender_->Start();
  }

  [[nodiscard]] sim::Duration mean_hop() const {
    return (data_delay_ + ack_delay_) / 2;
  }

  TcpSample Measure(std::int64_t segments) {
    const std::int64_t before = sender_->segments_acked();
    const std::uint64_t events_before = path_events_;
    const sim::Time sim_before = loop_.now();
    const auto begin = Clock::now();
    while (sender_->segments_acked() - before < segments) {
      loop_.RunFor(sim::Millis(100));
    }
    TcpSample s;
    s.wall_ns = NsSince(begin);
    s.acked = static_cast<double>(sender_->segments_acked() - before);
    s.path_events = static_cast<double>(path_events_ - events_before);
    s.sim_s = sim::ToSeconds(loop_.now() - sim_before);
    return s;
  }

 private:
  sim::EventLoop loop_;
  net::PacketIdAllocator ids_;
  sim::Rng rng_;
  double loss_;
  sim::Duration ack_delay_;
  sim::Duration data_delay_;
  std::unique_ptr<transport::TcpSender> sender_;
  std::unique_ptr<transport::TcpRenoReceiver> receiver_;
  std::uint64_t path_events_ = 0;
};

/// The same path with no TCP on it: `window` packets bounce end to end,
/// each hop one event carrying a packet, as the TCP harness's hops do.
double PathEventNs(int window, sim::Duration hop) {
  struct Bouncer {
    sim::EventLoop loop;
    sim::Duration hop = 0;
    std::uint64_t hops = 0;
    void Hop(net::Packet p) {
      loop.ScheduleIn(hop, [this, p] {
        ++hops;
        Hop(p);
      });
    }
  };
  return MedianOf(kReps, [&] {
    Bouncer b;
    b.hop = std::max<sim::Duration>(hop, 1);
    net::Packet packet;
    for (int i = 0; i < window; ++i) b.Hop(packet);
    b.loop.RunFor(sim::Millis(100));
    const std::uint64_t before = b.hops;
    const auto begin = Clock::now();
    b.loop.RunFor(sim::Seconds(20));
    return NsSince(begin) / static_cast<double>(b.hops - before);
  });
}

}  // namespace

double TcpSegmentNs(transport::CcAlgorithm cc, const TrafficShape& shape,
                    std::uint64_t seed) {
  // The path's events are taken out at the cost of a bare path holding as
  // many packets in flight as the warm-up measured (Little's law).
  TcpHarness warm(cc, shape, seed);
  const TcpSample w = warm.Measure(5'000);
  const double in_flight =
      w.path_events * sim::ToSeconds(warm.mean_hop()) / std::max(w.sim_s, 1e-9);
  const double path_event_ns = PathEventNs(Count(in_flight), warm.mean_hop());
  return MedianOf(kReps, [&] {
    TcpHarness h(cc, shape, seed);
    h.Measure(5'000);
    const TcpSample s = h.Measure(150'000);
    return (s.wall_ns - s.path_events * path_event_ns) / s.acked;
  });
}

// ------------------------------------------------------------------ rtc ----

double RtcUpdateNs(const TrafficShape& shape, std::uint64_t seed) {
  // Media packets at the shape's rate; one-way delay is the wired link's
  // propagation plus an AP queueing delay drawn uniformly around the
  // shape's median Tq.
  sim::Rng rng(seed);
  const sim::Duration interval = std::max<sim::Duration>(
      1, static_cast<sim::Duration>(static_cast<double>(sim::Seconds(1)) /
                                    std::max(shape.media_per_s, 1.0)));
  const sim::Duration propagation = net::WiredLink::Config{}.propagation;
  const std::int32_t bytes = rtc::MediaSender::Config{}.max_packet_bytes;
  std::vector<sim::Duration> delays(8192);
  for (auto& d : delays) {
    d = propagation + rng.UniformInt(0, 2 * shape.tq);
  }
  return MedianOf(kReps, [&] {
    rtc::BandwidthEstimator estimator;
    constexpr int kPackets = 400'000;
    const auto begin = Clock::now();
    for (int i = 0; i < kPackets; ++i) {
      const sim::Time sent = static_cast<sim::Time>(i) * interval;
      estimator.OnPacket(sent, sent + delays[static_cast<std::size_t>(i) & 8191],
                         bytes);
    }
    return NsSince(begin) / kPackets;
  });
}

// ----------------------------------------------------------------- core ----

namespace {

/// Records the echoes a prober sends; replies are synthesized by the driver.
class EchoLog : public core::ProbeTransport {
 public:
  void SendEcho(std::uint8_t /*tos*/, std::uint16_t /*ident*/,
                std::uint16_t sequence, std::int32_t /*size_bytes*/) override {
    sequences.push_back(sequence);
  }
  std::vector<std::uint16_t> sequences;
};

}  // namespace

double CoreAttributionNs(const TrafficShape& shape, std::uint64_t seed) {
  return MedianOf(kReps, [&] {
    sim::Rng rng(seed);
    sim::EventLoop loop;
    EchoLog transport;
    core::PingPairProber::Config config;
    config.dual = true;
    constexpr net::FlowId kFlow = 7;
    core::PingPairProber prober(loop, transport, config, kFlow);
    // Each reply of a pair follows the previous by one ping airtime.
    const sim::Duration reply_airtime = wifi::PhyParams{}.FrameAirtime(
        config.ping_size_bytes, shape.phy_rate_bps);

    net::Packet reply;
    reply.protocol = net::Protocol::kIcmp;
    reply.icmp.type = net::IcmpType::kEchoReply;
    reply.icmp.ident = config.ident;
    net::Packet media;
    media.flow = kFlow;
    media.size_bytes = rtc::MediaSender::Config{}.max_packet_bytes;
    media.mac.data_rate_bps = shape.phy_rate_bps;

    constexpr int kRounds = 60'000;
    double ns = 0.0;
    for (int round = 0; round < kRounds; ++round) {
      transport.sequences.clear();
      prober.ProbeOnce();
      const sim::Time sent = loop.now();
      loop.RunFor(reply_airtime);
      // Tq uniform around the shape's median, with as many media packets
      // in between as the media rate gives on average; both pairs agree,
      // so the dual filter keeps the sample.
      const sim::Duration tq = std::max<sim::Duration>(
          1, rng.UniformInt(shape.tq / 2, shape.tq + shape.tq / 2));
      const double expected = shape.media_per_s * sim::ToSeconds(tq);
      const int sandwiched = static_cast<int>(expected) +
                             (rng.Bernoulli(expected - std::floor(expected))
                                  ? 1
                                  : 0);
      const auto begin = Clock::now();
      for (int pair = 0; pair < 2; ++pair) {
        const sim::Time high = sent + (pair + 1) * reply_airtime;
        reply.icmp.sequence = transport.sequences[2 * pair + 1];
        prober.OnReply(reply, high);
        for (int k = 0; k < sandwiched && pair == 0; ++k) {
          prober.OnFlowPacket(media, high + (k + 1) * tq / (sandwiched + 1));
        }
        reply.icmp.sequence = transport.sequences[2 * pair];
        prober.OnReply(reply, high + tq);
      }
      ns += NsSince(begin);
      loop.RunFor(config.interval);
    }
    if (prober.stats().valid == 0) {
      throw std::runtime_error("attribution driver produced no valid sample");
    }
    return ns / kRounds;
  });
}

// ------------------------------------------------------ scenario / obs ----

CodecNs ScenarioCodecNs(const std::vector<std::string>& lines) {
  CodecNs out;
  if (lines.empty()) return out;
  std::vector<scenario::WildCallResult> decoded(lines.size());
  std::vector<std::uint64_t> indices(lines.size());
  const std::size_t passes = std::max<std::size_t>(1, 60'000 / lines.size());
  out.decode = MedianOf(kReps, [&] {
    const auto begin = Clock::now();
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (!scenario::DecodeWildCallLine(lines[i], &indices[i],
                                          &decoded[i])) {
          throw std::runtime_error("codec driver: line failed to decode");
        }
      }
    }
    return NsSince(begin) / static_cast<double>(passes * lines.size());
  });
  std::size_t bytes = 0;
  out.encode = MedianOf(kReps, [&] {
    const auto begin = Clock::now();
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (std::size_t i = 0; i < lines.size(); ++i) {
        bytes += scenario::EncodeWildCallLine(indices[i], decoded[i]).size();
      }
    }
    return NsSince(begin) / static_cast<double>(passes * lines.size());
  });
  if (bytes == 0) throw std::runtime_error("codec driver: empty encode");
  return out;
}

double ObsSerializeMs(const obs::MetricsRegistry& registry) {
  std::size_t bytes = 0;
  const double ms = MedianOf(5, [&] {
    const auto begin = Clock::now();
    bytes += obs::SerializeRegistry(registry).size();
    return NsSince(begin) / 1e6;
  });
  if (bytes == 0) throw std::runtime_error("obs driver: empty registry");
  return ms;
}

}  // namespace kwikr::perfbench
