#include "campaign/service.h"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "campaign/progress.h"
#include "fault/trial_executor.h"
#include "support/diagnostics.h"
#include "support/ticker.h"

namespace encore::campaign {

namespace {

constexpr std::uint32_t kNumOutcomes =
    static_cast<std::uint32_t>(fault::FaultOutcome::NumOutcomes);

} // namespace

// ---------------------------------------------------------------------------
// LeaseTable

LeaseTable::LeaseTable(const std::vector<std::uint64_t> &missing,
                       std::uint64_t total_trials,
                       std::uint64_t chunk_trials,
                       Clock::duration lease_timeout)
    : done_(total_trials, 1), missing_trials_(missing.size()),
      lease_timeout_(lease_timeout)
{
    ENCORE_ASSERT(chunk_trials > 0, "lease chunk size must be >= 1");
    // Everything *not* missing is already done (resumed from the
    // store); the bitmap rejects duplicate completions for those too.
    for (const std::uint64_t trial : missing) {
        ENCORE_ASSERT(trial < total_trials,
                      "missing trial index out of campaign range");
        done_[trial] = 0;
    }
    // Chunks: maximal contiguous runs of missing indices, capped at
    // chunk_trials. (On a fresh campaign this is simply [0, trials)
    // cut into equal slabs; after a resume the runs skip the holes.)
    std::size_t i = 0;
    while (i < missing.size()) {
        Chunk chunk;
        chunk.first = missing[i];
        std::uint64_t count = 1;
        while (i + count < missing.size() &&
               count < chunk_trials &&
               missing[i + count] == chunk.first + count)
            ++count;
        chunk.count = count;
        i += count;
        available_.push_back(chunks_.size());
        chunks_.push_back(chunk);
    }
}

std::optional<LeaseTable::Grant>
LeaseTable::claim(std::uint64_t worker, Clock::time_point now)
{
    while (!available_.empty()) {
        const std::size_t index = available_.front();
        available_.pop_front();
        Chunk &chunk = chunks_[index];
        // A queued chunk may have completed meanwhile (its original
        // lessee delivered after being presumed dead); skip it.
        if (chunk.state != ChunkState::Available)
            continue;
        if (chunk.done == chunk.count) {
            chunk.state = ChunkState::Done;
            continue;
        }
        chunk.state = ChunkState::Leased;
        chunk.lease_id = next_lease_id_++;
        chunk.worker = worker;
        chunk.deadline = now + lease_timeout_;
        if (++chunk.grants > 1)
            ++reissued_;
        active_[chunk.lease_id] = index;
        return Grant{chunk.lease_id, chunk.first, chunk.count};
    }
    return std::nullopt;
}

void
LeaseTable::renew(std::uint64_t lease_id, Clock::time_point now)
{
    const auto it = active_.find(lease_id);
    if (it != active_.end())
        chunks_[it->second].deadline = now + lease_timeout_;
}

bool
LeaseTable::markDone(std::uint64_t trial)
{
    if (trial >= done_.size() || done_[trial])
        return false;
    done_[trial] = 1;
    ++done_trials_;
    if (const auto index = chunkOf(trial))
        ++chunks_[*index].done;
    return true;
}

bool
LeaseTable::settleLease(std::uint64_t lease_id)
{
    const auto it = active_.find(lease_id);
    if (it == active_.end())
        return true;
    Chunk &chunk = chunks_[it->second];
    if (chunk.done < chunk.count)
        return false;
    chunk.state = ChunkState::Done;
    active_.erase(it);
    return true;
}

std::size_t
LeaseTable::expireStale(Clock::time_point now)
{
    std::vector<std::size_t> stale;
    for (const auto &[lease_id, index] : active_)
        if (chunks_[index].deadline <= now)
            stale.push_back(index);
    for (const std::size_t index : stale)
        revoke(index);
    return stale.size();
}

std::size_t
LeaseTable::releaseWorker(std::uint64_t worker)
{
    std::vector<std::size_t> held;
    for (const auto &[lease_id, index] : active_)
        if (chunks_[index].worker == worker)
            held.push_back(index);
    for (const std::size_t index : held)
        revoke(index);
    return held.size();
}

void
LeaseTable::revoke(std::size_t chunk_index)
{
    Chunk &chunk = chunks_[chunk_index];
    active_.erase(chunk.lease_id);
    if (chunk.done == chunk.count) {
        chunk.state = ChunkState::Done;
        return;
    }
    chunk.state = ChunkState::Available;
    // Front of the queue: revoked work is the oldest outstanding and
    // should finish soonest.
    available_.push_front(chunk_index);
}

std::optional<std::size_t>
LeaseTable::chunkOf(std::uint64_t trial) const
{
    // Chunks are sorted by `first`: the owning chunk is the last one
    // starting at or before `trial`.
    const auto it = std::upper_bound(
        chunks_.begin(), chunks_.end(), trial,
        [](std::uint64_t t, const Chunk &c) { return t < c.first; });
    if (it == chunks_.begin())
        return std::nullopt;
    const std::size_t index =
        static_cast<std::size_t>(it - chunks_.begin()) - 1;
    const Chunk &chunk = chunks_[index];
    if (trial >= chunk.first + chunk.count)
        return std::nullopt;
    return index;
}

// ---------------------------------------------------------------------------
// Frame I/O helpers

std::optional<Frame>
readFrame(Socket &socket, FrameReader &reader,
          std::chrono::milliseconds timeout)
{
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
        if (auto frame = reader.next())
            return frame;
        if (reader.error())
            return std::nullopt;
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline)
            return std::nullopt;
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - now);
        socket.waitReadable(
            std::min(remaining, std::chrono::milliseconds(100)));
        char buffer[4096];
        std::size_t received = 0;
        const RecvStatus status =
            socket.recvSome(buffer, sizeof buffer, &received);
        if (status == RecvStatus::Data)
            reader.feed(buffer, received);
        else if (status == RecvStatus::Closed ||
                 status == RecvStatus::Error)
            return reader.next(); // drain what already arrived
    }
}

namespace {

bool
sendFrame(Socket &socket, FrameType type,
          const std::vector<char> &payload)
{
    const std::vector<char> frame = encodeFrame(type, payload);
    return socket.sendAll(frame.data(), frame.size());
}

} // namespace

// ---------------------------------------------------------------------------
// Coordinator

namespace {

/// One connected peer (worker or progress monitor).
struct Connection
{
    Socket socket;
    FrameReader reader;
    std::uint64_t id = 0; ///< Worker identity for the lease table.
    std::string label;
    bool is_worker = false;  ///< Sent a HELLO.
    bool wants_work = false; ///< Idle worker awaiting a lease.
    bool drained = false;    ///< Was sent the count==0 drain lease.
    bool dead = false;       ///< Marked for removal this iteration.
};

} // namespace

CampaignService::CampaignService(CampaignSpec spec, StoreHeader header,
                                 ServiceOptions options)
    : spec_(std::move(spec)), header_(header),
      options_(std::move(options))
{
}

ServiceSummary
CampaignService::serve()
{
    ENCORE_ASSERT(spec_.trials == header_.total_trials,
                  "spec/header trial-count mismatch");
    if (header_.shard_count != 1)
        fatalf("campaign service: the coordinator owns the whole "
               "campaign; sharded stores (",
               header_.shard_index, "/", header_.shard_count,
               ") cannot be served");
    if (options_.chunk_trials == 0)
        fatal("campaign service: --chunk must be >= 1");

    ServiceSummary summary;
    const std::uint64_t trials = spec_.trials;

    // --- Store adoption: identical semantics to CampaignRunner.
    std::vector<std::uint8_t> done(trials, 0);
    std::unique_ptr<TrialStoreWriter> writer;
    const std::string &path = options_.store_path;
    if (!path.empty()) {
        std::string error;
        if (std::filesystem::exists(path)) {
            StoreContents contents;
            if (const auto err = readTrialStore(path, contents))
                fatal(*err);
            requireHeaderMatches(header_, contents.header, path);
            if (contents.dropped_bytes > 0)
                warn("trial store '" + path + "': dropped " +
                     std::to_string(contents.dropped_bytes) +
                     " torn/corrupt tail bytes from an interrupted "
                     "run; the missing trials will be re-leased");
            for (const TrialRecord &record : contents.records) {
                if (record.outcome >= kNumOutcomes)
                    fatalf("trial store '", path,
                           "': record for trial ", record.trial,
                           " has outcome ", record.outcome,
                           " out of range — store was written by an "
                           "incompatible build");
                if (record.trial >= trials || done[record.trial])
                    continue;
                done[record.trial] = 1;
                ++summary.result.counts[record.outcome];
                ++summary.result.trials;
                summary.result.replay_cost += record.aux;
            }
            summary.resumed = summary.result.trials;
            writer = TrialStoreWriter::append(path, contents,
                                              options_.store, &error);
        } else {
            writer = TrialStoreWriter::create(path, header_,
                                              options_.store, &error);
        }
        if (!writer)
            fatal(error);
    }

    if (options_.planned) {
        // Trials the planner already accounts for (sidecar-reused
        // groups and the exact masked stratum) never reach the lease
        // table; fold their tallies up front so the progress meter and
        // the completeness check (result.trials == trials) both see
        // them.
        for (std::size_t i = 0; i < kNumOutcomes; ++i)
            summary.result.counts[i] +=
                options_.planned_base.counts[i];
        summary.result.trials += options_.planned_base.trials;
    }

    std::vector<std::uint64_t> missing;
    if (options_.planned) {
        // The execution set, minus whatever a resumed store already
        // holds. LeaseTable takes any sorted missing list — chunks are
        // maximal contiguous runs, so gaps between strata or reused
        // groups just start new chunks.
        missing.reserve(options_.planned_missing.size());
        for (const std::uint64_t t : options_.planned_missing)
            if (t < trials && !done[t])
                missing.push_back(t);
    } else {
        missing.reserve(trials - summary.resumed);
        for (std::uint64_t t = 0; t < trials; ++t)
            if (!done[t])
                missing.push_back(t);
    }

    LeaseTable leases(missing, trials, options_.chunk_trials,
                      options_.lease_timeout);

    ProgressMeter::Options meter_options;
    meter_options.line = options_.progress;
    meter_options.heartbeat_path = options_.heartbeat_path;
    meter_options.interval = options_.progress_interval;
    meter_options.label = !options_.label.empty()
                              ? options_.label
                              : "serve " + spec_.workload;
    meter_options.total = trials;
    meter_options.initial = summary.result;
    ProgressMeter meter(meter_options);

    std::string error;
    ListenSocket listener =
        ListenSocket::listenOn(options_.host, options_.port, &error);
    if (!listener.valid())
        fatal(error);
    std::cerr << "campaign service listening on " << options_.host
              << ":" << listener.port() << " (" << missing.size()
              << " of " << trials << " trials to lease, chunk "
              << options_.chunk_trials << ")\n";
    if (!options_.port_file.empty()) {
        // Write-then-rename so a reader polling for the file never
        // sees a partial line.
        const std::string tmp = options_.port_file + ".tmp";
        std::ofstream out(tmp, std::ios::trunc);
        out << options_.host << ":" << listener.port() << "\n";
        out.close();
        if (!out)
            fatalf("campaign service: cannot write port file '",
                   options_.port_file, "'");
        std::filesystem::rename(tmp, options_.port_file);
    }

    std::vector<std::unique_ptr<Connection>> connections;
    std::uint64_t next_worker_id = 1;
    const std::vector<char> spec_payload = encodeCampaignSpec(spec_);

    auto drop = [&](Connection &conn, const std::string &why) {
        if (conn.dead)
            return;
        conn.dead = true;
        const std::size_t revoked = leases.releaseWorker(conn.id);
        if (conn.is_worker && !conn.drained) {
            ++summary.workers_lost;
            std::cerr << "campaign service: lost worker '"
                      << conn.label << "' (" << why << "), "
                      << revoked << " lease"
                      << (revoked == 1 ? "" : "s") << " re-queued\n";
        }
        conn.socket.close();
    };

    auto grantTo = [&](Connection &conn) {
        if (!conn.wants_work || conn.dead)
            return;
        const auto grant =
            leases.claim(conn.id, LeaseTable::Clock::now());
        if (!grant)
            return; // Nothing available; stays queued for work.
        conn.wants_work = false;
        const std::uint32_t stratum =
            grant->first_trial < options_.trial_stratum.size()
                ? options_.trial_stratum[grant->first_trial]
                : 0;
        if (!sendFrame(conn.socket, FrameType::Lease,
                       encodeLease({grant->lease_id,
                                    grant->first_trial, grant->count,
                                    stratum})))
            drop(conn, "send failed");
    };

    auto handleFrame = [&](Connection &conn, const Frame &frame) {
        switch (frame.type) {
        case FrameType::Hello: {
            const auto label = decodeHello(frame.payload);
            if (!label) {
                drop(conn, "malformed HELLO");
                return;
            }
            conn.label = *label;
            conn.is_worker = true;
            // No lease yet: the worker still has to build + prepare
            // the workload (seconds), and leasing now would start the
            // lease clock on a worker that cannot execute. It signals
            // readiness with a HEARTBEAT whose lease_id is 0.
            conn.wants_work = false;
            ++summary.workers_seen;
            if (!sendFrame(conn.socket, FrameType::Hello,
                           spec_payload))
                drop(conn, "send failed");
            return;
        }
        case FrameType::Heartbeat: {
            const auto info = decodeHeartbeat(frame.payload);
            if (!info) {
                drop(conn, "malformed HEARTBEAT");
                return;
            }
            if (info->lease_id == 0)
                conn.wants_work = true; // ready/idle signal
            else
                leases.renew(info->lease_id, LeaseTable::Clock::now());
            return;
        }
        case FrameType::ResultBatch: {
            const auto batch = decodeResultBatch(frame.payload);
            if (!batch) {
                drop(conn, "corrupt RESULT-BATCH");
                return;
            }
            for (const WireRecord &record : batch->records) {
                if (record.trial >= trials ||
                    record.outcome >= kNumOutcomes) {
                    drop(conn, "record outside the campaign");
                    return;
                }
                if (!leases.markDone(record.trial)) {
                    ++summary.duplicates;
                    continue;
                }
                ++summary.ingested;
                ++summary.result.counts[record.outcome];
                ++summary.result.trials;
                summary.result.replay_cost += record.aux;
                if (writer)
                    writer->add(record.trial, record.outcome,
                                record.aux);
                meter.note(
                    static_cast<fault::FaultOutcome>(record.outcome));
            }
            // The worker is idle once its lease's chunk is fully
            // recorded (by it or by whoever else re-executed it).
            if (leases.settleLease(batch->lease_id))
                conn.wants_work = true;
            return;
        }
        case FrameType::Progress: {
            const std::string json =
                formatHeartbeatJson(meter.sample(false));
            std::vector<char> payload(json.begin(), json.end());
            if (!sendFrame(conn.socket, FrameType::Progress, payload))
                drop(conn, "send failed");
            return;
        }
        case FrameType::Lease:
            drop(conn, "unexpected LEASE from a client");
            return;
        }
    };

    // --- Event loop.
    while (!leases.allDone()) {
        std::vector<pollfd> fds;
        fds.push_back(pollfd{listener.fd(), POLLIN, 0});
        for (const auto &conn : connections)
            fds.push_back(pollfd{conn->socket.fd(), POLLIN, 0});
        ::poll(fds.data(), fds.size(), 100);

        while (auto accepted = listener.accept()) {
            auto conn = std::make_unique<Connection>();
            conn->socket = std::move(*accepted);
            conn->id = next_worker_id++;
            conn->label = "conn#" + std::to_string(conn->id);
            connections.push_back(std::move(conn));
        }

        for (auto &conn_ptr : connections) {
            Connection &conn = *conn_ptr;
            if (conn.dead)
                continue;
            bool closed = false;
            for (;;) {
                char buffer[65536];
                std::size_t received = 0;
                const RecvStatus status = conn.socket.recvSome(
                    buffer, sizeof buffer, &received);
                if (status == RecvStatus::Data) {
                    conn.reader.feed(buffer, received);
                    continue;
                }
                // Closed/Error: frames already buffered still count —
                // ingest them below, THEN drop (which revokes leases).
                closed = status != RecvStatus::WouldBlock;
                break;
            }
            while (!conn.dead) {
                const auto frame = conn.reader.next();
                if (!frame)
                    break;
                handleFrame(conn, *frame);
            }
            if (!conn.dead && conn.reader.error())
                drop(conn, *conn.reader.error());
            if (!conn.dead && closed)
                drop(conn, "connection closed");
        }

        leases.expireStale(LeaseTable::Clock::now());

        for (auto &conn_ptr : connections)
            grantTo(*conn_ptr);

        connections.erase(
            std::remove_if(connections.begin(), connections.end(),
                           [](const auto &conn) { return conn->dead; }),
            connections.end());
    }

    // --- Drain: tell every surviving worker the campaign is done.
    for (auto &conn_ptr : connections) {
        Connection &conn = *conn_ptr;
        if (conn.dead)
            continue;
        conn.drained = true;
        sendFrame(conn.socket, FrameType::Lease, encodeLease({0, 0, 0}));
        conn.socket.close();
    }

    summary.leases_reissued = leases.reissued();

    if (writer && !writer->finish())
        fatalf("trial store '", path,
               "': write failed (disk full?). The store still holds a "
               "valid prefix; `serve` again (or `resume`) to refill "
               "what is missing.");
    summary.heartbeat_ok = meter.finish();
    summary.complete = summary.result.trials == trials;
    return summary;
}

// ---------------------------------------------------------------------------
// Worker

std::optional<CampaignSpec>
workerHandshake(Socket &socket, FrameReader &reader,
                const std::string &label,
                std::chrono::milliseconds timeout)
{
    if (!sendFrame(socket, FrameType::Hello, encodeHello(label)))
        return std::nullopt;
    const auto frame = readFrame(socket, reader, timeout);
    if (!frame || frame->type != FrameType::Hello)
        return std::nullopt;
    return decodeCampaignSpec(frame->payload);
}

WorkerSummary
runWorkerLoop(Socket &socket, FrameReader &reader,
              const fault::FaultInjector &injector,
              const fault::CampaignConfig &config,
              const WorkerOptions &options)
{
    WorkerSummary summary;

    // The heartbeat ticker and the lease loop share the socket for
    // writes; frames must not interleave mid-frame.
    std::mutex send_mutex;
    std::atomic<std::uint64_t> current_lease{0};
    std::atomic<std::uint64_t> completed{0};
    auto sendLocked = [&](FrameType type,
                          const std::vector<char> &payload) {
        std::lock_guard<std::mutex> lock(send_mutex);
        return sendFrame(socket, type, payload);
    };
    Ticker heartbeat(options.heartbeat_interval, [&] {
        const std::uint64_t lease =
            current_lease.load(std::memory_order_relaxed);
        if (lease != 0)
            sendLocked(FrameType::Heartbeat,
                       encodeHeartbeat(
                           {lease,
                            completed.load(std::memory_order_relaxed)}));
    });

    // Readiness: the coordinator leases nothing until this arrives
    // (the handshake happens before workload preparation, which takes
    // seconds — see the Hello handler).
    sendLocked(FrameType::Heartbeat, encodeHeartbeat({0, 0}));

    // One executor for the whole loop: its pool and interpreters are
    // reused across leases.
    fault::TrialExecutor executor(injector, options.jobs);
    const fault::TrialExecutor::Sink sink =
        [&](std::uint64_t, fault::FaultOutcome, std::uint32_t) {
            completed.fetch_add(1, std::memory_order_relaxed);
            if (options.throttle.count() > 0)
                std::this_thread::sleep_for(options.throttle);
        };

    for (;;) {
        const auto frame =
            readFrame(socket, reader, options.idle_timeout);
        if (!frame)
            break; // Coordinator gone or stream corrupt.
        if (frame->type == FrameType::Hello)
            continue; // Duplicate spec; harmless.
        if (frame->type != FrameType::Lease)
            continue;
        const auto grant = decodeLease(frame->payload);
        if (!grant)
            break;
        if (grant->count == 0) {
            summary.drained = true;
            break;
        }

        current_lease.store(grant->lease_id,
                            std::memory_order_relaxed);
        completed.store(0, std::memory_order_relaxed);
        const fault::TrialResults results = executor.run(
            config,
            fault::TrialIndices::range(grant->first_trial, grant->count),
            sink);

        bool sent = true;
        for (std::uint64_t offset = 0;
             offset < grant->count && sent;
             offset += options.max_batch_records) {
            ResultBatch batch;
            batch.lease_id = grant->lease_id;
            const std::uint64_t end =
                std::min<std::uint64_t>(
                    offset + options.max_batch_records, grant->count);
            batch.records.reserve(end - offset);
            for (std::uint64_t i = offset; i < end; ++i)
                batch.records.push_back(
                    {grant->first_trial + i,
                     static_cast<std::uint32_t>(results.outcomes[i]),
                     results.aux[i]});
            sent = sendLocked(FrameType::ResultBatch,
                              encodeResultBatch(batch));
        }
        current_lease.store(0, std::memory_order_relaxed);
        if (!sent)
            break;
        summary.executed += grant->count;
        ++summary.leases;
    }

    heartbeat.stop();
    return summary;
}

} // namespace encore::campaign
