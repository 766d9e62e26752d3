#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "error.hpp"
#include "fault/injector.hpp"
#include "graph/types.hpp"
#include "net/metrics.hpp"
#include "net/network_config.hpp"

namespace katric::util {
class WorkerPool;
}  // namespace katric::util

namespace katric::net {

using Rank = graph::Rank;
using WordVec = std::vector<std::uint64_t>;

/// Raised when a PE's buffered communication data exceeds the configured
/// per-PE memory budget — the simulated equivalent of the out-of-memory
/// crashes the paper reports for TriC's static single-shot buffering.
class OomError : public std::runtime_error {
public:
    OomError(Rank rank, std::uint64_t words);
    [[nodiscard]] Rank rank() const noexcept { return rank_; }
    [[nodiscard]] std::uint64_t words() const noexcept { return words_; }

private:
    Rank rank_;
    std::uint64_t words_;
};

/// Raised by the hardened message layer when detection/recovery cannot
/// transparently absorb a fault: checksum failures past the retransmission
/// budget (kCorrupt), lost messages or a wedged superstep (kTimeout), a rank
/// that stopped participating (kRankLost). Follows the OomError pattern —
/// thrown out of the counting run, caught at the Engine boundary, reported
/// as a typed Error in Domain::kNet. Never results in a divergent count.
class FaultError : public std::runtime_error {
public:
    FaultError(NetError code, const std::string& detail);
    [[nodiscard]] NetError code() const noexcept { return code_; }

private:
    NetError code_;
};

/// Raised at a superstep boundary when the query's CancelToken has expired
/// (deadline passed or explicit cancel). Cooperative: a superstep always
/// completes; cancellation lands between supersteps.
class CancelledError : public std::runtime_error {
public:
    CancelledError();
};

/// Arms the hardened message layer on a Simulator. All pointers are borrowed
/// and must outlive the run; each may be null independently (e.g. harden
/// framing with no injector = checksum/dedup machinery only, the overhead
/// bench's hardened mode).
struct HardenOptions {
    /// Frame/checksum/retransmit the payload path. Off = only the superstep
    /// boundary checks (cancel token, phase timeout) are armed — what a
    /// deadline without --harden wants: zero cost on the message path.
    bool frame = true;
    /// Deterministic fault oracle; null = no injection.
    const fault::FaultInjector* injector = nullptr;
    /// Counter sink; null = don't count.
    fault::FaultStats* stats = nullptr;
    /// Cooperative cancellation, checked at each superstep boundary.
    const fault::CancelToken* cancel = nullptr;
    /// Retransmission budget per frame; 0 = fail-fast on first detection.
    std::uint32_t max_retries = 3;
    /// Simulated-seconds ceiling per superstep; 0 = no timeout. A phase
    /// whose makespan exceeds it throws FaultError(kTimeout) instead of
    /// silently absorbing a wedged link into the total.
    double phase_timeout = 0.0;
};

class Simulator;

namespace detail {

/// One message a callback sent: charged to its sender when sent, handed to
/// the network when the callback's rank commits (Simulator::commit).
struct OutgoingMessage {
    Rank dest;
    int tag;
    /// Charged length in words.
    std::uint64_t words;
    /// The sender's clock after its injection charge.
    double arrival;
    /// Empty for size-only sends; an unsealed frame when `framed`.
    WordVec payload;
    bool framed;  ///< commit stamps the frame id (net::seal_frame)
};

/// A rank's working state while one of its callbacks runs: the clock and
/// counters it charges and the messages it sends. Loaded from the simulator
/// before the callback and committed after it, so ranks running
/// concurrently write only their own lane; the alignment keeps two lanes
/// off one cache line.
struct alignas(64) RankLane {
    double clock = 0.0;
    RankMetrics metrics;
    std::vector<OutgoingMessage> outbox;
    std::exception_ptr error;  ///< what the callback threw, if anything
};

}  // namespace detail

/// Per-PE facade handed to algorithm callbacks: the only way algorithm code
/// can touch the machine. Mirrors the discipline of an MPI rank — a PE sees
/// its own rank, the PE count, and explicit message passing; nothing else.
class RankHandle {
public:
    [[nodiscard]] Rank rank() const noexcept { return rank_; }
    [[nodiscard]] Rank size() const noexcept;
    [[nodiscard]] const NetworkConfig& config() const noexcept;

    /// Non-blocking send: charges the sender α + β·ℓ (single-ported
    /// injection) and schedules delivery. Self-sends are delivered through
    /// the same path (with zero network charge) so algorithms need no
    /// special case.
    void send(Rank dest, WordVec payload, int tag = 0);

    /// Size-only send: identical timing, ordering, and metric charges to
    /// send()ing a `words`-long payload, but no payload is materialized —
    /// the delivered span is empty. O(1) instead of O(ℓ) on both ends; the
    /// basis of the engine's preprocessing-cost replay
    /// (core::apply_preprocessing), which needs the machine charges of an
    /// exchange without its data.
    void send_sized(Rank dest, std::uint64_t words, int tag = 0);

    /// Advances this PE's clock by ops elementary operations.
    void charge_ops(std::uint64_t ops) noexcept {
        lane_->clock += static_cast<double>(ops) * compute_op_;
        lane_->metrics.compute_ops += ops;
    }
    /// Advances this PE's clock by an explicit amount of seconds.
    void charge_seconds(double seconds);

    /// This PE's simulated clock.
    [[nodiscard]] double now() const noexcept { return lane_->clock; }

    /// Reports the current amount of buffered outgoing data; updates the
    /// high-water mark and enforces the per-PE memory budget (throws
    /// OomError past the limit).
    void note_buffered_words(std::uint64_t current_words);

    [[nodiscard]] const RankMetrics& metrics() const noexcept { return lane_->metrics; }

private:
    friend class Simulator;
    RankHandle(Simulator& sim, Rank rank, detail::RankLane& lane) noexcept;

    void post(Rank dest, int tag, std::uint64_t words, WordVec payload, bool framed);

    Simulator* sim_;
    Rank rank_;
    detail::RankLane* lane_;
    double compute_op_;
};

/// Deterministic discrete-event simulator of a p-PE message-passing machine.
///
/// Execution model: a *phase* (superstep) runs every rank's start function,
/// then delivers messages in global arrival order until quiescence —
/// handlers may send further messages (aggregation proxies, replies). An
/// optional idle hook runs when the event queue drains, so message queues
/// can flush residual buffers; the phase ends when an idle round generates
/// no new traffic. A closing barrier lifts all clocks to the maximum plus
/// α·⌈log₂ p⌉.
///
/// Concurrency: with a worker pool attached (set_worker_pool), the start
/// functions of all ranks — and, in each idle round, the idle hooks of all
/// ranks — run concurrently, so those callbacks must write only state their
/// own rank owns (its slot of a per-rank vector, its message queue, its
/// sink bucket) and read nothing another rank's callback writes in the same
/// round. Message handlers always run one at a time in arrival order. Every
/// callback charges and sends through its rank's private RankLane; sends
/// are charged to the sender at send time and handed to the network when
/// the callback's rank commits. Commits run in rank order after each
/// round (and right after each handler), so sequence numbers, frame ids and
/// injected faults come out exactly as if the ranks had run one after
/// another — the report is the same with or without a pool.
///
/// Failure: if callbacks throw, the lowest rank's exception propagates.
/// Ranks below it commit, it commits what it did before throwing, and every
/// higher rank's clock, counters and sends in that round are discarded —
/// the state a rank-by-rank run stopping at the throw would have left.
///
/// Determinism: ties in arrival time break by send sequence number, and
/// per-channel FIFO follows from per-sender clock monotonicity.
class Simulator {
public:
    using MessageHandler =
        std::function<void(RankHandle&, Rank src, int tag, std::span<const std::uint64_t>)>;
    using RankFn = std::function<void(RankHandle&)>;

    Simulator(Rank num_ranks, NetworkConfig config);

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /// Runs every rank's start and idle callbacks on `pool` from now on
    /// (null, the default: one rank after another on the calling thread).
    /// The pool must outlive the simulator's phases. Changes host time only:
    /// every simulated result is identical either way.
    void set_worker_pool(util::WorkerPool* pool) noexcept { pool_ = pool; }

    /// Runs one superstep; returns its duration in simulated seconds.
    double run_phase(const std::string& name, const RankFn& start,
                     const MessageHandler& on_message, const RankFn& on_idle = {});

    [[nodiscard]] Rank num_ranks() const noexcept { return num_ranks_; }
    [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }
    /// Global simulated time (the last barrier).
    [[nodiscard]] double time() const noexcept { return barrier_time_; }

    [[nodiscard]] std::span<const RankMetrics> rank_metrics() const noexcept {
        return metrics_;
    }
    [[nodiscard]] std::span<const PhaseRecord> phases() const noexcept { return phases_; }

    /// When enabled, each PhaseRecord additionally captures per-rank busy
    /// clocks and per-rank metric deltas for that superstep (the raw data
    /// behind per-rank trace lanes and per-phase comm breakdowns). Off by
    /// default: the snapshots cost O(p) copies per superstep.
    void record_phase_details(bool enabled) { record_phase_details_ = enabled; }
    [[nodiscard]] bool phase_details_recorded() const noexcept {
        return record_phase_details_;
    }

    /// Turns on the hardened message layer: every cross-rank payload send is
    /// framed with [frame_id, length, checksum] (encoding.hpp), verified and
    /// deduplicated at delivery, retransmitted with exponential backoff on
    /// detected loss or corruption, and every superstep boundary checks the
    /// injector's crash/stall schedule, the cancel token, and the phase
    /// timeout. Off (the default) the simulator is bit-identical to the
    /// unhardened build: the only added cost on every hot path is one null
    /// check on fault_ — the same discipline obs uses.
    void harden(const HardenOptions& options);
    [[nodiscard]] bool hardened() const noexcept { return fault_ != nullptr; }
    /// True when run_phase may throw at a superstep's opening boundary,
    /// before any callback runs: a cancel token or a fault injector (rank
    /// crashes) is armed. Callers that change their own state just ahead of
    /// a phase (the stream apply superstep) require this to be false.
    [[nodiscard]] bool aborts_at_boundary() const noexcept {
        return fault_ != nullptr
               && (fault_->opts.cancel != nullptr || fault_->opts.injector != nullptr);
    }

private:
    friend class RankHandle;

    struct Event {
        double arrival;
        std::uint64_t seq;
        Rank src;
        Rank dest;
        int tag;
        /// Charged message length in words. Equals payload.size() for real
        /// sends; size-only sends carry the length with an empty payload.
        std::uint64_t words;
        WordVec payload;
        /// Hardened-path frame id; 0 = unframed (self-send, size-only send,
        /// or hardening off). The network's own knowledge of which send this
        /// is — corruption mutates the payload buffer, never this.
        std::uint64_t frame = 0;
    };
    struct EventLater {
        bool operator()(const Event& a, const Event& b) const noexcept {
            return a.arrival != b.arrival ? a.arrival > b.arrival : a.seq > b.seq;
        }
    };

    /// True when cross-rank payload sends travel framed (hardened layer).
    [[nodiscard]] bool frames_payloads() const noexcept {
        return fault_ != nullptr && fault_->opts.frame;
    }
    /// Runs `fn` for every rank, each on its own lane — on the pool when
    /// one is attached — then commits the lanes in rank order and rethrows
    /// the lowest rank's exception (see the class comment).
    void run_ranks(const RankFn& fn);
    /// Loads rank r's lane from the machine state and runs `fn` on it,
    /// capturing what it throws.
    template <typename Fn>
    void run_on_lane(Rank r, const Fn& fn) noexcept;
    /// Writes rank r's lane back and hands its outbox to the network, in
    /// send order: sequence numbers, frame ids and injected faults are
    /// assigned here.
    void commit(Rank r);
    void deliver_until_quiescent(const MessageHandler& on_message, const RankFn& on_idle);

    /// Retained copy of a hardened in-flight frame, kept until its verified
    /// delivery so loss and corruption can be repaired by retransmission.
    struct InFlightFrame {
        Rank src;
        Rank dest;
        int tag;
        WordVec framed;          ///< pristine framed buffer (header + payload)
        std::uint32_t attempts;  ///< delivery attempts so far (1 = first send)
    };

    /// All hardened-path state, allocated only when harden() is called so
    /// the disabled path stays a single null check.
    struct FaultState {
        HardenOptions opts;
        std::uint64_t next_frame_id = 0;
        std::uint32_t superstep = 0;
        /// frame_id → retained frame; std::map for a deterministic
        /// retransmission sweep order.
        std::map<std::uint64_t, InFlightFrame> in_flight;
        /// Verified-delivered frame ids this phase (idempotent re-delivery).
        std::unordered_set<std::uint64_t> delivered;
    };

    /// Pushes the retained frame's event(s), sent at `arrival`, through the
    /// injector: 0 (drop), 1, or 2 (duplicate) events, possibly with a
    /// mutated copy of the buffer (truncate/bitflip) or a perturbed arrival
    /// (reorder/delay). Used by both the first send and retransmissions;
    /// the sender has already been charged.
    void push_hardened(std::uint64_t frame_id, double arrival);
    /// Re-sends a frame after detected loss/corruption, charging the sender
    /// the backoff α·2^attempt on top of the normal injection cost. Throws
    /// FaultError when the retry budget is exhausted.
    void retransmit(std::uint64_t frame_id, NetError exhausted_as);
    /// Verified-delivery bookkeeping for one hardened event. Returns the
    /// payload span to hand the handler, or nullopt when the event must be
    /// suppressed (duplicate) — retransmission on corruption happens inside.
    std::optional<std::span<const std::uint64_t>> receive_hardened(const Event& event);

    NetworkConfig config_;
    Rank num_ranks_;
    std::vector<double> clocks_;
    std::vector<RankMetrics> metrics_;
    std::priority_queue<Event, std::vector<Event>, EventLater> events_;
    std::uint64_t next_seq_ = 0;
    double barrier_time_ = 0.0;
    std::vector<PhaseRecord> phases_;
    bool record_phase_details_ = false;
    std::unique_ptr<FaultState> fault_;
    util::WorkerPool* pool_ = nullptr;
    /// One per rank; a lane holds live state only while its rank's
    /// callback runs or awaits commit.
    std::vector<detail::RankLane> lanes_;
};

}  // namespace katric::net
