/**
 * @file
 * Cluster-plane tests: wire-protocol hostility (the same
 * every-truncation / every-bit-flip discipline the .tie loader
 * gets), the bounded socket layer, child-process control, and
 * end-to-end worker/router integration — sharding, health, drain,
 * fail-over, and the any-replica-same-bits contract.
 */

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/process.hh"
#include "cluster/router.hh"
#include "cluster/socket.hh"
#include "cluster/wire.hh"
#include "cluster/worker.hh"
#include "io/crc32.hh"
#include "io/tie_format.hh"
#include "serve/load_gen.hh"
#include "tt/tt_matrix.hh"

namespace tie {
namespace cluster {
namespace {

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

TEST(Wire, FrameLayoutGoldenBytes)
{
    const uint8_t payload[3] = {0xaa, 0xbb, 0xcc};
    const std::vector<uint8_t> f =
        encodeFrame(WireType::InferRequest, payload, sizeof(payload));
    ASSERT_EQ(f.size(), kWireHeaderSize + 3);
    // Fixed fields, byte for byte (all little-endian).
    EXPECT_EQ(f[0], 'T');
    EXPECT_EQ(f[1], 'I');
    EXPECT_EQ(f[2], 'E');
    EXPECT_EQ(f[3], 'W');
    const uint8_t version_le[4] = {1, 0, 0, 0};
    EXPECT_EQ(std::memcmp(f.data() + 4, version_le, 4), 0);
    const uint8_t type_le[4] = {3, 0, 0, 0}; // InferRequest
    EXPECT_EQ(std::memcmp(f.data() + 8, type_le, 4), 0);
    const uint8_t zero[4] = {0, 0, 0, 0};
    EXPECT_EQ(std::memcmp(f.data() + 12, zero, 4), 0); // reserved
    const uint8_t size_le[8] = {3, 0, 0, 0, 0, 0, 0, 0};
    EXPECT_EQ(std::memcmp(f.data() + 16, size_le, 8), 0);
    // CRCs match an independent computation over the same ranges.
    const uint32_t payload_crc = io::crc32(payload, sizeof(payload));
    uint32_t got;
    std::memcpy(&got, f.data() + 24, 4);
    EXPECT_EQ(got, payload_crc); // little-endian host in CI; layout
    const uint32_t header_crc = io::crc32(f.data(), 28);
    std::memcpy(&got, f.data() + 28, 4);
    EXPECT_EQ(got, header_crc);
    // Payload rides after the header, untouched.
    EXPECT_EQ(std::memcmp(f.data() + 32, payload, 3), 0);
}

TEST(Wire, EmptyPayloadRoundTrip)
{
    const std::vector<uint8_t> f =
        encodeFrame(WireType::Drain, nullptr, 0);
    ASSERT_EQ(f.size(), kWireHeaderSize);
    WireFrame out;
    size_t consumed = 0;
    EXPECT_EQ(tryDecodeFrame(f.data(), f.size(), &out, &consumed),
              DecodeStatus::Ok);
    EXPECT_EQ(out.type, WireType::Drain);
    EXPECT_TRUE(out.payload.empty());
    EXPECT_EQ(consumed, kWireHeaderSize);
}

TEST(Wire, TypedMessagesRoundTripBitExactly)
{
    HelloAckMsg hello;
    hello.in_size = 64;
    hello.out_size = 64;
    hello.layers = 3;
    hello.pid = 4242;
    WireFrame f;
    f.type = WireType::HelloAck;
    f.payload = encodeHelloAck(hello);
    HelloAckMsg hello2;
    ASSERT_TRUE(decodeHelloAck(f, &hello2));
    EXPECT_EQ(hello2.in_size, 64u);
    EXPECT_EQ(hello2.out_size, 64u);
    EXPECT_EQ(hello2.layers, 3u);
    EXPECT_EQ(hello2.pid, 4242u);

    // Hostile doubles: signed zero, denormal, inf, NaN — all must
    // survive the wire bit-for-bit.
    InferRequestMsg req;
    req.req_id = 7;
    req.deadline_us = 12345;
    req.x = {1.0, -0.0, 5e-324,
             std::numeric_limits<double>::infinity(),
             std::numeric_limits<double>::quiet_NaN()};
    f.type = WireType::InferRequest;
    f.payload = encodeInferRequest(req);
    InferRequestMsg req2;
    ASSERT_TRUE(decodeInferRequest(f, &req2));
    EXPECT_EQ(req2.req_id, 7u);
    EXPECT_EQ(req2.deadline_us, 12345u);
    ASSERT_EQ(req2.x.size(), req.x.size());
    EXPECT_EQ(std::memcmp(req2.x.data(), req.x.data(),
                          req.x.size() * sizeof(double)),
              0);

    InferResponseMsg resp;
    resp.req_id = 7;
    resp.status = 3;
    resp.y = {2.5, -0.0};
    f.type = WireType::InferResponse;
    f.payload = encodeInferResponse(resp);
    InferResponseMsg resp2;
    ASSERT_TRUE(decodeInferResponse(f, &resp2));
    EXPECT_EQ(resp2.req_id, 7u);
    EXPECT_EQ(resp2.status, 3u);
    ASSERT_EQ(resp2.y.size(), 2u);
    EXPECT_EQ(std::memcmp(resp2.y.data(), resp.y.data(),
                          2 * sizeof(double)),
              0);

    HealthReportMsg rep;
    rep.queue_depth = 5;
    rep.in_flight = 2;
    rep.done = 100;
    rep.shed = 3;
    rep.draining = 1;
    f.type = WireType::HealthReport;
    f.payload = encodeHealthReport(rep);
    HealthReportMsg rep2;
    ASSERT_TRUE(decodeHealthReport(f, &rep2));
    EXPECT_EQ(rep2.queue_depth, 5u);
    EXPECT_EQ(rep2.in_flight, 2u);
    EXPECT_EQ(rep2.done, 100u);
    EXPECT_EQ(rep2.shed, 3u);
    EXPECT_EQ(rep2.draining, 1u);
}

/** The double with IEEE-754 bit pattern @p bits. */
double
f64Bits(uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/** The hostile values every f64 payload test carries, in order. */
std::vector<double>
hostileDoubles()
{
    return {f64Bits(0x8000000000000000ull),  // -0.0
            f64Bits(0xFFF800000000BEEFull),  // NaN with payload bits
            f64Bits(0x000FFFFFFFFFFFFFull),  // largest denormal
            f64Bits(0x7FF0000000000000ull),  // +inf
            f64Bits(0xFFF0000000000000ull),  // -inf
            f64Bits(0x3FF0000000000000ull)}; // 1.0
}

/** hostileDoubles() as little-endian wire bytes. */
const uint8_t kHostileDoublesLe[6 * 8] = {
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, //
    0xEF, 0xBE, 0x00, 0x00, 0x00, 0x00, 0xF8, 0xFF, //
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x7F, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0xFF, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F, //
};

TEST(Wire, InferPayloadGoldenBytes)
{
    // Pin the payload layouts byte for byte: a round trip alone would
    // pass a layout bug that encoder and decoder share.
    InferRequestMsg req;
    req.req_id = 0x0102030405060708ull;
    req.deadline_us = 0x1122334455667788ull;
    req.x = hostileDoubles();
    std::vector<uint8_t> want = {0x08, 0x07, 0x06, 0x05,
                                 0x04, 0x03, 0x02, 0x01, // req_id
                                 0x88, 0x77, 0x66, 0x55,
                                 0x44, 0x33, 0x22, 0x11}; // deadline
    want.insert(want.end(), std::begin(kHostileDoublesLe),
                std::end(kHostileDoublesLe));
    EXPECT_EQ(encodeInferRequest(req), want);

    InferResponseMsg resp;
    resp.req_id = 0x0A0B0C0D0E0F1011ull;
    resp.status = 3;
    resp.y = hostileDoubles();
    want = {0x11, 0x10, 0x0F, 0x0E, 0x0D, 0x0C, 0x0B, 0x0A, // req_id
            0x03, 0x00, 0x00, 0x00,                         // status
            0x00, 0x00, 0x00, 0x00};                        // reserved
    want.insert(want.end(), std::begin(kHostileDoublesLe),
                std::end(kHostileDoublesLe));
    EXPECT_EQ(encodeInferResponse(resp), want);

    // And the decoders read those exact bytes back to the same bits.
    WireFrame f;
    f.type = WireType::InferResponse;
    f.payload = want;
    InferResponseMsg back;
    ASSERT_TRUE(decodeInferResponse(f, &back));
    EXPECT_EQ(back.req_id, resp.req_id);
    ASSERT_EQ(back.y.size(), resp.y.size());
    EXPECT_EQ(std::memcmp(back.y.data(), resp.y.data(),
                          resp.y.size() * sizeof(double)),
              0);
}

TEST(Wire, OnePassFramesEqualTwoStepEncoding)
{
    for (const size_t n : {size_t(0), size_t(1), size_t(6), size_t(4096)}) {
        std::vector<double> v(n);
        const std::vector<double> hostile = hostileDoubles();
        for (size_t i = 0; i < n; ++i)
            v[i] = i < hostile.size() ? hostile[i] : 0.5 * double(i);

        InferRequestMsg req;
        req.req_id = 42 + n;
        req.deadline_us = 7;
        req.x = v;
        const std::vector<uint8_t> rp = encodeInferRequest(req);
        std::vector<uint8_t> frame = {0xde, 0xad}; // overwritten
        encodeInferRequestFrame(req.req_id, req.deadline_us, v.data(),
                                n, &frame);
        EXPECT_EQ(frame, encodeFrame(WireType::InferRequest, rp.data(),
                                     rp.size()))
            << n << " values";

        InferResponseMsg resp;
        resp.req_id = 9;
        resp.status = 1;
        resp.y = v;
        const std::vector<uint8_t> sp = encodeInferResponse(resp);
        encodeInferResponseFrame(resp.req_id, resp.status, v.data(), n,
                                 &frame);
        EXPECT_EQ(frame, encodeFrame(WireType::InferResponse,
                                     sp.data(), sp.size()))
            << n << " values";

        // The view decode reads the payload in place, inside the frame.
        WireFrameView view;
        size_t used = 0;
        ASSERT_EQ(tryDecodeFrame(frame.data(), frame.size(), &view,
                                 &used),
                  DecodeStatus::Ok);
        EXPECT_EQ(used, frame.size());
        EXPECT_EQ(view.payload, frame.data() + kWireHeaderSize);
        EXPECT_EQ(view.size, sp.size());
        InferResponseMsg back;
        ASSERT_TRUE(decodeInferResponse(view, &back));
        ASSERT_EQ(back.y.size(), n);
        if (n != 0) {
            EXPECT_EQ(std::memcmp(back.y.data(), v.data(), n * 8), 0);
        }
    }
}

TEST(Wire, NeedMoreReportsTheWindowTheFrameNeeds)
{
    const std::vector<uint8_t> payload(100, 0x33);
    const std::vector<uint8_t> frame = encodeFrame(
        WireType::InferRequest, payload.data(), payload.size());
    WireFrameView view;
    size_t need = 0;
    EXPECT_EQ(tryDecodeFrame(frame.data(), 10, &view, &need),
              DecodeStatus::NeedMore);
    EXPECT_EQ(need, kWireHeaderSize);
    EXPECT_EQ(tryDecodeFrame(frame.data(), kWireHeaderSize + 1, &view,
                             &need),
              DecodeStatus::NeedMore);
    EXPECT_EQ(need, frame.size());
}

TEST(Wire, TypedDecodersRejectMalformedPayloads)
{
    WireFrame f;
    f.type = WireType::HelloAck;
    f.payload.assign(27, 0); // one byte short
    HelloAckMsg hello;
    EXPECT_FALSE(decodeHelloAck(f, &hello));
    f.payload.assign(28, 0); // right size, zero in_size
    EXPECT_FALSE(decodeHelloAck(f, &hello));

    f.type = WireType::InferRequest;
    f.payload.assign(16, 0); // header only, no activations
    InferRequestMsg req;
    EXPECT_FALSE(decodeInferRequest(f, &req));
    f.payload.assign(16 + 12, 0); // not a multiple of 8
    EXPECT_FALSE(decodeInferRequest(f, &req));

    f.type = WireType::InferResponse;
    f.payload.assign(16, 0);
    f.payload[12] = 1; // nonzero reserved field
    InferResponseMsg resp;
    EXPECT_FALSE(decodeInferResponse(f, &resp));

    // A frame of the wrong type never decodes as another message.
    f.type = WireType::HealthReport;
    f.payload.assign(16, 0);
    EXPECT_FALSE(decodeInferResponse(f, &resp));
}

TEST(Wire, EveryTruncationIsNeedMoreOrCorruptNeverOk)
{
    InferRequestMsg req;
    req.req_id = 1;
    req.deadline_us = 0;
    req.x = {0.25, 0.5, 0.75};
    const std::vector<uint8_t> payload = encodeInferRequest(req);
    const std::vector<uint8_t> frame = encodeFrame(
        WireType::InferRequest, payload.data(), payload.size());

    for (size_t len = 0; len < frame.size(); ++len) {
        WireFrame out;
        size_t consumed = 0;
        const DecodeStatus st =
            tryDecodeFrame(frame.data(), len, &out, &consumed);
        EXPECT_NE(st, DecodeStatus::Ok) << "truncation at " << len;
    }
    // An honest truncation (clean prefix) is NeedMore specifically.
    WireFrame out;
    size_t consumed = 0;
    EXPECT_EQ(tryDecodeFrame(frame.data(), frame.size() - 1, &out,
                             &consumed),
              DecodeStatus::NeedMore);
    EXPECT_EQ(tryDecodeFrame(frame.data(), kWireHeaderSize - 1, &out,
                             &consumed),
              DecodeStatus::NeedMore);
    // And the whole frame decodes.
    EXPECT_EQ(tryDecodeFrame(frame.data(), frame.size(), &out,
                             &consumed),
              DecodeStatus::Ok);
    EXPECT_EQ(consumed, frame.size());
}

TEST(Wire, EveryBitFlipIsCorrupt)
{
    InferRequestMsg req;
    req.req_id = 99;
    req.deadline_us = 1000;
    req.x = {1.5, -2.5};
    const std::vector<uint8_t> payload = encodeInferRequest(req);
    const std::vector<uint8_t> frame = encodeFrame(
        WireType::InferRequest, payload.data(), payload.size());

    for (size_t i = 0; i < frame.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> evil = frame;
            evil[i] ^= static_cast<uint8_t>(1u << bit);
            WireFrame out;
            size_t consumed = 0;
            std::string err;
            EXPECT_EQ(tryDecodeFrame(evil.data(), evil.size(), &out,
                                     &consumed, &err),
                      DecodeStatus::Corrupt)
                << "byte " << i << " bit " << bit
                << " slipped through (" << err << ")";
        }
    }
}

TEST(Wire, OversizedPayloadClaimIsCorruptEvenWithValidCrc)
{
    // Forge a header that claims a payload over the cap but carries
    // a *correct* header CRC: the cap check must fire on its own,
    // not hide behind CRC validation.
    std::vector<uint8_t> evil =
        encodeFrame(WireType::Hello, nullptr, 0);
    const uint64_t huge = kWireMaxPayload + 1;
    std::memcpy(evil.data() + 16, &huge, 8); // LE host
    const uint32_t crc = io::crc32(evil.data(), 28);
    std::memcpy(evil.data() + 28, &crc, 4);
    WireFrame out;
    size_t consumed = 0;
    std::string err;
    EXPECT_EQ(tryDecodeFrame(evil.data(), evil.size(), &out,
                             &consumed, &err),
              DecodeStatus::Corrupt);
    EXPECT_NE(err.find("cap"), std::string::npos) << err;
}

TEST(Wire, TypeRange)
{
    EXPECT_FALSE(wireTypeKnown(0));
    for (uint32_t t = 1; t <= 8; ++t)
        EXPECT_TRUE(wireTypeKnown(t)) << t;
    EXPECT_FALSE(wireTypeKnown(9));
    EXPECT_FALSE(wireTypeKnown(0xffffffffu));
}

// ---------------------------------------------------------------------
// Socket layer
// ---------------------------------------------------------------------

TEST(Socket, ParseEndpoint)
{
    Endpoint ep;
    EXPECT_TRUE(parseEndpoint("tcp:0", &ep));
    EXPECT_EQ(ep.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(ep.port, 0);
    EXPECT_TRUE(parseEndpoint("tcp:65535", &ep));
    EXPECT_EQ(ep.port, 65535);
    EXPECT_TRUE(parseEndpoint("unix:/tmp/w0.sock", &ep));
    EXPECT_EQ(ep.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(ep.path, "/tmp/w0.sock");
    EXPECT_EQ(ep.toString(), "unix:/tmp/w0.sock");

    std::string err;
    EXPECT_FALSE(parseEndpoint("", &ep, &err));
    EXPECT_FALSE(parseEndpoint("tcp:", &ep, &err));
    EXPECT_FALSE(parseEndpoint("tcp:abc", &ep, &err));
    EXPECT_FALSE(parseEndpoint("tcp:70000", &ep, &err));
    EXPECT_FALSE(parseEndpoint("tcp:-1", &ep, &err));
    EXPECT_FALSE(parseEndpoint("unix:", &ep, &err));
    EXPECT_FALSE(parseEndpoint("http:8080", &ep, &err));
    EXPECT_FALSE(parseEndpoint(
        "unix:/" + std::string(200, 'x'), &ep, &err));
}

TEST(Socket, SendAllTimedIsBoundedOnAStalledReader)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    // Shrink the send buffer so a modest payload jams immediately;
    // the peer never reads a byte (the stalled-scraper scenario).
    const int small = 4096;
    ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));

    const std::vector<uint8_t> big(1 << 20, 0x5a);
    const auto t0 = std::chrono::steady_clock::now();
    std::string err;
    const bool ok =
        sendAllTimed(sv[0], big.data(), big.size(), 200, &err);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_FALSE(ok);
    EXPECT_FALSE(err.empty());
    // Bounded: the deadline, not the peer, decides. Generous slack
    // for a loaded 1-CPU CI box.
    EXPECT_LT(elapsed_ms, 5000.0);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(Socket, FrameConnReassemblesSplitFramesAndFailsStop)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    FrameConn rx(sv[1]);

    InferResponseMsg msg;
    msg.req_id = 11;
    msg.status = 3;
    msg.y = {1.0, 2.0, 3.0};
    const std::vector<uint8_t> payload = encodeInferResponse(msg);
    const std::vector<uint8_t> frame = encodeFrame(
        WireType::InferResponse, payload.data(), payload.size());

    // Dribble the frame in two arbitrary chunks; the first recv must
    // time out (frame incomplete) but keep the partial bytes.
    const size_t cut = 13;
    ASSERT_EQ(::send(sv[0], frame.data(), cut, 0),
              static_cast<ssize_t>(cut));
    WireFrame out;
    EXPECT_EQ(rx.recvFrame(&out, 50), FrameConn::RecvStatus::Timeout);
    ASSERT_EQ(::send(sv[0], frame.data() + cut, frame.size() - cut, 0),
              static_cast<ssize_t>(frame.size() - cut));
    ASSERT_EQ(rx.recvFrame(&out, 1000), FrameConn::RecvStatus::Ok);
    EXPECT_EQ(out.type, WireType::InferResponse);
    EXPECT_EQ(out.payload, payload);

    // Two frames in one burst: both decode, in order.
    const std::vector<uint8_t> drain =
        encodeFrame(WireType::Drain, nullptr, 0);
    std::vector<uint8_t> burst = frame;
    burst.insert(burst.end(), drain.begin(), drain.end());
    ASSERT_EQ(::send(sv[0], burst.data(), burst.size(), 0),
              static_cast<ssize_t>(burst.size()));
    ASSERT_EQ(rx.recvFrame(&out, 1000), FrameConn::RecvStatus::Ok);
    EXPECT_EQ(out.type, WireType::InferResponse);
    ASSERT_EQ(rx.recvFrame(&out, 1000), FrameConn::RecvStatus::Ok);
    EXPECT_EQ(out.type, WireType::Drain);

    // A corrupted frame is fail-stop.
    std::vector<uint8_t> evil = frame;
    evil[5] ^= 0x01;
    ASSERT_EQ(::send(sv[0], evil.data(), evil.size(), 0),
              static_cast<ssize_t>(evil.size()));
    std::string err;
    EXPECT_EQ(rx.recvFrame(&out, 1000, &err),
              FrameConn::RecvStatus::Corrupt);
    EXPECT_FALSE(err.empty());

    // Orderly close reads as Closed, not an error.
    rx.reset(sv[1] >= 0 ? ::dup(sv[1]) : -1);
    ::close(sv[0]);
    EXPECT_EQ(rx.recvFrame(&out, 1000), FrameConn::RecvStatus::Closed);
}

TEST(Socket, FrameConnStreamsLargeFramesInPlace)
{
    // Many 32 KiB frames back to back through a small socket buffer:
    // every frame arrives whole and in order through the view API,
    // whatever the split points, with the buffer reused in place.
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    FrameConn rx(sv[1]);
    constexpr size_t kFrames = 24;
    constexpr size_t kValues = 4096;
    std::vector<uint8_t> stream;
    for (size_t k = 0; k < kFrames; ++k) {
        std::vector<double> y(kValues);
        for (size_t i = 0; i < kValues; ++i)
            y[i] = double(k * kValues + i);
        std::vector<uint8_t> frame;
        encodeInferResponseFrame(k, 3, y.data(), y.size(), &frame);
        stream.insert(stream.end(), frame.begin(), frame.end());
        if (k % 4 == 3) { // interleave small frames
            const std::vector<uint8_t> hc =
                encodeFrame(WireType::HealthCheck, nullptr, 0);
            stream.insert(stream.end(), hc.begin(), hc.end());
        }
    }
    std::thread writer([&] {
        // Odd-sized writes so frames straddle every recv.
        size_t off = 0;
        while (off < stream.size()) {
            const size_t n = std::min<size_t>(5003, stream.size() - off);
            const ssize_t w = ::send(sv[0], stream.data() + off, n, 0);
            if (w <= 0)
                break;
            off += static_cast<size_t>(w);
        }
    });
    const auto readAll = [&] {
        for (size_t k = 0; k < kFrames; ++k) {
            WireFrameView f;
            ASSERT_EQ(rx.recvFrame(&f, 5000), FrameConn::RecvStatus::Ok);
            InferResponseMsg m;
            ASSERT_TRUE(decodeInferResponse(f, &m)) << "frame " << k;
            EXPECT_EQ(m.req_id, k);
            ASSERT_EQ(m.y.size(), kValues);
            EXPECT_EQ(m.y.front(), double(k * kValues));
            EXPECT_EQ(m.y.back(), double(k * kValues + kValues - 1));
            if (k % 4 == 3) {
                ASSERT_EQ(rx.recvFrame(&f, 5000),
                          FrameConn::RecvStatus::Ok);
                EXPECT_EQ(f.type, WireType::HealthCheck);
                EXPECT_EQ(f.size, 0u);
            }
        }
    };
    readAll();
    if (::testing::Test::HasFatalFailure())
        ::shutdown(sv[1], SHUT_RDWR); // unblock the writer, then fail
    writer.join();
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ::close(sv[0]);
    WireFrameView f;
    EXPECT_EQ(rx.recvFrame(&f, 1000), FrameConn::RecvStatus::Closed);
}

TEST(Socket, ListenConnectRoundTripTcpAndUnix)
{
    for (const bool tcp : {true, false}) {
        Endpoint ep;
        char tmpl[] = "/tmp/tie-sock-XXXXXX";
        if (tcp) {
            ep.kind = Endpoint::Kind::Tcp;
            ep.port = 0; // ephemeral
        } else {
            ASSERT_NE(::mkdtemp(tmpl), nullptr);
            ep.kind = Endpoint::Kind::Unix;
            ep.path = std::string(tmpl) + "/s.sock";
        }
        Listener l;
        std::string err;
        ASSERT_TRUE(listen(ep, &l, &err)) << err;
        if (tcp)
            EXPECT_GT(l.endpoint.port, 0); // resolved ephemeral

        const int cfd = connectTimed(l.endpoint, 1000, &err);
        ASSERT_GE(cfd, 0) << err;
        const int sfd = acceptTimed(l, 1000);
        ASSERT_GE(sfd, 0);

        FrameConn client(cfd), server(sfd);
        ASSERT_TRUE(client.sendFrame(WireType::Hello, nullptr, 0,
                                     1000, &err))
            << err;
        WireFrame f;
        ASSERT_EQ(server.recvFrame(&f, 1000),
                  FrameConn::RecvStatus::Ok);
        EXPECT_EQ(f.type, WireType::Hello);
        closeListener(l);
        if (!tcp) {
            // closeListener unlinked the socket file.
            EXPECT_NE(::access(ep.path.c_str(), F_OK), 0);
            ::rmdir(tmpl);
        }
    }
}

// ---------------------------------------------------------------------
// Process control
// ---------------------------------------------------------------------

TEST(Process, SpawnReadLineAndReap)
{
    ChildProcess c;
    std::string err;
    ASSERT_TRUE(
        spawnProcess({"/bin/echo", "ready tcp:1234"}, &c, &err))
        << err;
    std::string line;
    ASSERT_TRUE(readLine(c.stdout_fd, &line, 5000));
    EXPECT_EQ(line, "ready tcp:1234");
    const int status = waitProcess(c);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(Process, ExecFailureIsReportedNotSilent)
{
    ChildProcess c;
    std::string err;
    EXPECT_FALSE(spawnProcess(
        {"/nonexistent/definitely-not-a-binary"}, &c, &err));
    EXPECT_NE(err.find("exec"), std::string::npos) << err;
    EXPECT_FALSE(c.running());
}

TEST(Process, ReadLineTimesOutOnASilentChild)
{
    ChildProcess c;
    std::string err;
    ASSERT_TRUE(spawnProcess({"/bin/sleep", "30"}, &c, &err)) << err;
    std::string line;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(readLine(c.stdout_fd, &line, 100));
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_LT(ms, 5000.0);
    killProcess(c, SIGKILL);
    waitProcess(c);
}

// ---------------------------------------------------------------------
// Worker + router integration (in-process, real sockets)
// ---------------------------------------------------------------------

/** Shared fixture: one small .tie artifact in a temp dir. */
class ClusterTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/tie-cluster-test-XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        TtLayerConfig cfg;
        cfg.m = {4, 4};
        cfg.n = {4, 4};
        cfg.r = {1, 3, 1};
        Rng rng(7);
        const TtMatrix layer = TtMatrix::random(cfg, rng);
        model_path_ = dir_ + "/model.tie";
        io::saveTieModel(layer, model_path_);
    }

    void
    TearDown() override
    {
        ::unlink(model_path_.c_str());
        ::rmdir(dir_.c_str());
    }

    std::unique_ptr<ClusterWorker>
    makeWorker(const std::string &name)
    {
        ClusterWorkerOptions opts;
        opts.listen.kind = Endpoint::Kind::Unix;
        opts.listen.path = dir_ + "/" + name + ".sock";
        opts.server.workers = 1;
        opts.server.max_batch = 4;
        opts.server.queue_capacity = 32;
        auto w = std::make_unique<ClusterWorker>(
            io::TieModel::load(model_path_), opts);
        std::string err;
        EXPECT_TRUE(w->start(&err)) << err;
        return w;
    }

    std::string dir_;
    std::string model_path_;
};

TEST_F(ClusterTest, ShardedLoadIsBitIdenticalToReference)
{
    auto w0 = makeWorker("w0");
    auto w1 = makeWorker("w1");

    RouterOptions ropts;
    ropts.workers = {w0->endpoint(), w1->endpoint()};
    Router router(ropts);
    std::string err;
    ASSERT_TRUE(router.start(&err)) << err;
    EXPECT_EQ(router.liveWorkers(), 2u);
    EXPECT_EQ(router.inSize(), 16u);
    EXPECT_EQ(router.outSize(), 16u);

    serve::LoadGenOptions lopts;
    lopts.requests = 48;
    lopts.clients = 4;
    lopts.seed = 3;
    const io::TieModel oracle = io::TieModel::load(model_path_);
    const serve::LaneOutputs expected = {serve::referenceOutputs(
        oracle.layers(), lopts.seed, lopts.requests)};
    RouterTarget target({&router});
    const serve::LoadGenReport rep =
        serve::runLoadGen(target, lopts, &expected).aggregate;

    EXPECT_EQ(rep.completed, 48u);
    EXPECT_EQ(rep.rejected, 0u);
    EXPECT_EQ(rep.timed_out, 0u);
    EXPECT_EQ(rep.mismatched, 0u);

    const RouterStats stats = router.stats();
    EXPECT_EQ(stats.accepted, 48u);
    EXPECT_EQ(stats.done, 48u);
    // Load-aware dispatch actually sharded: with 4 closed-loop
    // clients both replicas must have served something.
    EXPECT_GT(w0->doneCount(), 0u);
    EXPECT_GT(w1->doneCount(), 0u);
    EXPECT_EQ(w0->doneCount() + w1->doneCount(), 48u);

    router.stop();
    w0->stop();
    w1->stop();
}

TEST_F(ClusterTest, CrossReplicaOutputsAreByteIdentical)
{
    // The same request served by two independent replicas must
    // produce the same bytes — the invariant that makes fail-over
    // redispatch sound.
    auto w0 = makeWorker("a");
    auto w1 = makeWorker("b");
    for (size_t i = 0; i < 2; ++i) {
        std::vector<std::vector<double>> outs;
        for (ClusterWorker *w : {w0.get(), w1.get()}) {
            RouterOptions ropts;
            ropts.workers = {w->endpoint()};
            Router router(ropts);
            std::string err;
            ASSERT_TRUE(router.start(&err)) << err;
            const std::vector<double> x =
                serve::makeRequestInput(17, i, router.inSize());
            const ClusterTicket t = router.submit(x.data());
            ASSERT_TRUE(t.valid());
            std::vector<double> y;
            ASSERT_EQ(router.wait(t, &y), ClusterStatus::Done);
            outs.push_back(std::move(y));
            router.stop();
        }
        ASSERT_EQ(outs[0].size(), outs[1].size());
        EXPECT_EQ(std::memcmp(outs[0].data(), outs[1].data(),
                              outs[0].size() * sizeof(double)),
                  0)
            << "replicas disagreed on request " << i;
    }
    w0->stop();
    w1->stop();
}

TEST_F(ClusterTest, DeadReplicaFailsOverWithoutLosingRequests)
{
    auto w0 = makeWorker("w0");
    auto w1 = makeWorker("w1");

    RouterOptions ropts;
    ropts.workers = {w0->endpoint(), w1->endpoint()};
    ropts.health_period_ms = 50;
    Router router(ropts);
    std::string err;
    ASSERT_TRUE(router.start(&err)) << err;

    // Kill one replica out from under the router, then drive load
    // before it has necessarily noticed: requests dispatched to the
    // dead replica must fail over, not hang or vanish.
    w0->stop();

    serve::LoadGenOptions lopts;
    lopts.requests = 32;
    lopts.clients = 4;
    lopts.seed = 5;
    const io::TieModel oracle = io::TieModel::load(model_path_);
    const serve::LaneOutputs expected = {serve::referenceOutputs(
        oracle.layers(), lopts.seed, lopts.requests)};
    RouterTarget target({&router});
    const serve::LoadGenReport rep =
        serve::runLoadGen(target, lopts, &expected).aggregate;

    // Zero lost: every request has a terminal outcome...
    EXPECT_EQ(rep.completed + rep.rejected + rep.timed_out,
              lopts.requests);
    // ...every completed one is bit-exact, and the live replica
    // carried the load.
    EXPECT_EQ(rep.mismatched, 0u);
    EXPECT_GT(rep.completed, 0u);

    const RouterStats stats = router.stats();
    EXPECT_GE(stats.worker_deaths, 1u);
    EXPECT_EQ(router.liveWorkers(), 1u);

    router.stop();
    w1->stop();
}

TEST_F(ClusterTest, NoLiveReplicaShedsAtSubmitInsteadOfHanging)
{
    auto w0 = makeWorker("w0");
    RouterOptions ropts;
    ropts.workers = {w0->endpoint()};
    ropts.health_period_ms = 50;
    Router router(ropts);
    std::string err;
    ASSERT_TRUE(router.start(&err)) << err;

    w0->stop();
    // Wait for the monitor to declare the replica dead.
    for (int i = 0; i < 100 && router.liveWorkers() > 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(router.liveWorkers(), 0u);

    const std::vector<double> x(router.inSize(), 0.5);
    const ClusterTicket t = router.submit(x.data());
    EXPECT_FALSE(t.valid());
    EXPECT_EQ(router.wait(t), ClusterStatus::Shed);
    EXPECT_GE(router.stats().shed, 1u);
    router.stop();
}

TEST_F(ClusterTest, DrainFinishesAcceptedWorkAndRefusesNew)
{
    auto w0 = makeWorker("w0");
    RouterOptions ropts;
    ropts.workers = {w0->endpoint()};
    Router router(ropts);
    std::string err;
    ASSERT_TRUE(router.start(&err)) << err;

    // Complete a request, then drain, then try another.
    const std::vector<double> x(router.inSize(), 0.25);
    const ClusterTicket t = router.submit(x.data());
    ASSERT_TRUE(t.valid());
    std::vector<double> y;
    ASSERT_EQ(router.wait(t, &y), ClusterStatus::Done);

    router.drainWorkers(/*timeout_ms=*/5000);
    EXPECT_TRUE(w0->draining());
    EXPECT_TRUE(w0->waitDrained(/*timeout_ms=*/5000));

    // A drained replica sheds new work explicitly (single replica:
    // nowhere to redispatch).
    const ClusterTicket t2 = router.submit(x.data());
    EXPECT_EQ(router.wait(t2), ClusterStatus::Shed);

    router.stop();
    w0->stop();
}

TEST_F(ClusterTest, RouterRefusesAMismatchedReplicaSet)
{
    // A second artifact with a different interface: the router must
    // refuse to mix it with the first (any-replica-same-bits is
    // meaningless across different models).
    TtLayerConfig cfg;
    cfg.m = {2, 4};
    cfg.n = {4, 4};
    cfg.r = {1, 2, 1};
    Rng rng(9);
    const std::string other_path = dir_ + "/other.tie";
    io::saveTieModel(TtMatrix::random(cfg, rng), other_path);

    auto w0 = makeWorker("w0");
    ClusterWorkerOptions wopts;
    wopts.listen.kind = Endpoint::Kind::Unix;
    wopts.listen.path = dir_ + "/other.sock";
    ClusterWorker other(io::TieModel::load(other_path), wopts);
    std::string err;
    ASSERT_TRUE(other.start(&err)) << err;

    RouterOptions ropts;
    ropts.workers = {w0->endpoint(), other.endpoint()};
    Router router(ropts);
    // start() succeeds (>= 1 good replica) but the mismatched one
    // must be left dead, not folded in.
    ASSERT_TRUE(router.start(&err)) << err;
    EXPECT_EQ(router.liveWorkers(), 1u);
    EXPECT_EQ(router.inSize(), 16u);

    router.stop();
    other.stop();
    w0->stop();
    ::unlink(other_path.c_str());
}

TEST_F(ClusterTest, WorkerSurvivesACorruptClient)
{
    auto w0 = makeWorker("w0");
    std::string err;

    // A client that speaks garbage gets dropped; the worker keeps
    // serving well-formed peers afterwards.
    const int bad = connectTimed(w0->endpoint(), 1000, &err);
    ASSERT_GE(bad, 0) << err;
    const char garbage[] = "GET / HTTP/1.0\r\n\r\n";
    ASSERT_GT(::send(bad, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);
    ::close(bad);

    RouterOptions ropts;
    ropts.workers = {w0->endpoint()};
    Router router(ropts);
    ASSERT_TRUE(router.start(&err)) << err;
    const std::vector<double> x(router.inSize(), 1.0);
    const ClusterTicket t = router.submit(x.data());
    ASSERT_TRUE(t.valid());
    EXPECT_EQ(router.wait(t), ClusterStatus::Done);
    router.stop();
    w0->stop();
}

} // namespace
} // namespace cluster
} // namespace tie
