// Wire-protocol tests: the REST-ful proxy interface of §3.3 — codec
// round-trips, malformed-input rejection, and the frontend's dispatch
// (auth, status codes, a real checkpoint through the text protocol).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/blobcr.h"
#include "core/rest_proxy.h"
#include "core/wire.h"
#include "cr/remap.h"
#include "sim/sim.h"

namespace blobcr::core {
namespace {

using common::Buffer;
using sim::Task;

// ---------------------------------------------------------------------------
// percent encoding
// ---------------------------------------------------------------------------

TEST(WireCodecTest, PercentEncodeLeavesUnreservedAlone) {
  EXPECT_EQ(percent_encode("vm07.example_x~y-z"), "vm07.example_x~y-z");
}

TEST(WireCodecTest, PercentEncodeEscapesReserved) {
  EXPECT_EQ(percent_encode("a b&c=d%e/f"), "a%20b%26c%3Dd%25e%2Ff");
}

TEST(WireCodecTest, PercentRoundTripsArbitraryBytes) {
  std::string raw;
  for (int c = 0; c < 256; ++c) raw.push_back(static_cast<char>(c));
  EXPECT_EQ(percent_decode(percent_encode(raw)), raw);
}

TEST(WireCodecTest, PercentDecodeRejectsBadEscapes) {
  EXPECT_THROW((void)percent_decode("abc%2"), WireError);
  EXPECT_THROW((void)percent_decode("abc%"), WireError);
  EXPECT_THROW((void)percent_decode("abc%zz"), WireError);
}

// ---------------------------------------------------------------------------
// request codec
// ---------------------------------------------------------------------------

TEST(WireCodecTest, RequestRoundTrip) {
  WireRequest req;
  req.method = "POST";
  req.path = "/checkpoint";
  req.params["vm"] = "vm 07";  // needs escaping
  req.params["token"] = "s3cret&more";
  const WireRequest back = parse_request(encode_request(req));
  EXPECT_EQ(back.method, "POST");
  EXPECT_EQ(back.path, "/checkpoint");
  EXPECT_EQ(back.params.at("vm"), "vm 07");
  EXPECT_EQ(back.params.at("token"), "s3cret&more");
}

TEST(WireCodecTest, RequestWithoutParams) {
  const WireRequest req = parse_request("GET /status HTTP/1.0\r\n\r\n");
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/status");
  EXPECT_TRUE(req.params.empty());
}

TEST(WireCodecTest, RequestRejectsMalformedLines) {
  EXPECT_THROW((void)parse_request("POST /x HTTP/1.0"), WireError);  // no CRLF
  EXPECT_THROW((void)parse_request("POST\r\n\r\n"), WireError);
  EXPECT_THROW((void)parse_request("POST /x HTTP/9.9\r\n\r\n"), WireError);
  EXPECT_THROW((void)parse_request("POST x HTTP/1.0\r\n\r\n"), WireError);
  EXPECT_THROW((void)parse_request("POST /x?broken HTTP/1.0\r\n\r\n"),
               WireError);
}

// ---------------------------------------------------------------------------
// response codec
// ---------------------------------------------------------------------------

TEST(WireCodecTest, ResponseRoundTrip) {
  WireResponse resp;
  resp.status = 200;
  resp.reason = "OK";
  resp.fields["image"] = "12";
  resp.fields["version"] = "3";
  const WireResponse back = parse_response(encode_response(resp));
  EXPECT_EQ(back.status, 200);
  EXPECT_EQ(back.reason, "OK");
  EXPECT_EQ(back.fields.at("image"), "12");
  EXPECT_EQ(back.fields.at("version"), "3");
}

TEST(WireCodecTest, ResponseRejectsMalformedInput) {
  EXPECT_THROW((void)parse_response("FTP/1.0 200 OK\r\n\r\n"), WireError);
  EXPECT_THROW((void)parse_response("HTTP/1.0 2x0 OK\r\n\r\n"), WireError);
  EXPECT_THROW((void)parse_response("HTTP/1.0 200\r\n\r\n"), WireError);
  EXPECT_THROW((void)parse_response("HTTP/1.0 200 OK\r\nbad-header\r\n\r\n"),
               WireError);
}

TEST(WireCodecTest, MultiLineReasonStaysOnStatusLine) {
  const WireResponse r =
      parse_response("HTTP/1.0 503 Service Unavailable\r\n\r\n");
  EXPECT_EQ(r.status, 503);
  EXPECT_EQ(r.reason, "Service Unavailable");
}

// ---------------------------------------------------------------------------
// frontend over a live proxy
// ---------------------------------------------------------------------------

CloudConfig tiny_cfg() {
  CloudConfig cfg;
  cfg.compute_nodes = 4;
  cfg.metadata_nodes = 2;
  cfg.backend = Backend::BlobCR;
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 20 * common::kMB;
  return cfg;
}

struct RestOut {
  WireResponse ok;
  WireResponse bad_token;
  WireResponse bad_path;
  WireResponse bad_method;
  WireResponse bad_parse;
  bool restored = false;
};

TEST(RestProxyTest, ChecksAuthPathMethodAndServesCheckpoints) {
  Cloud cloud(tiny_cfg());
  RestOut out;

  cloud.run([](Cloud* cl, RestOut* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    co_await dep.deploy_and_boot();
    Deployment::Instance& inst = dep.instance(0);
    RestProxyFrontend rest(*inst.proxy, "s3cret");

    guestfs::SimpleFs* fs = dep.vm(0).fs();
    co_await fs->write_file("/data/state.bin", Buffer::pattern(200'000, 4));
    co_await fs->sync();

    WireRequest req;
    req.method = "POST";
    req.path = "/checkpoint";
    req.params["token"] = "s3cret";
    out->ok = parse_response(co_await rest.handle(
        encode_request(req), *inst.vm, *inst.mirror));

    req.params["token"] = "wrong";
    out->bad_token = parse_response(co_await rest.handle(
        encode_request(req), *inst.vm, *inst.mirror));

    req.params["token"] = "s3cret";
    req.path = "/nope";
    out->bad_path = parse_response(co_await rest.handle(
        encode_request(req), *inst.vm, *inst.mirror));

    req.path = "/checkpoint";
    req.method = "GET";
    out->bad_method = parse_response(co_await rest.handle(
        encode_request(req), *inst.vm, *inst.mirror));

    out->bad_parse = parse_response(co_await rest.handle(
        "garbage\r\n\r\n", *inst.vm, *inst.mirror));

    // The REST-taken snapshot is a real checkpoint: restart from it.
    inst.last_snapshot.backend = Backend::BlobCR;
    inst.last_snapshot.instance = 0;
    inst.last_snapshot.image =
        static_cast<blob::BlobId>(std::stoull(out->ok.fields.at("image")));
    inst.last_snapshot.version = static_cast<blob::VersionId>(
        std::stoull(out->ok.fields.at("version")));
    GlobalCheckpoint ckpt = dep.collect_last_snapshots();
    dep.destroy_all();
    const RestartPlan plan =
        cr::build_restart_plan(ckpt.snapshots, ckpt.snapshots.size());
    co_await dep.restart_from(plan, 2);
    const Buffer back = co_await dep.vm(0).fs()->read_file("/data/state.bin");
    out->restored = (back == Buffer::pattern(200'000, 4));
  }(&cloud, &out));

  EXPECT_EQ(out.ok.status, 200);
  EXPECT_GT(std::stoull(out.ok.fields.at("payload-bytes")), 0u);
  EXPECT_GT(std::stoull(out.ok.fields.at("downtime-us")), 0u);
  EXPECT_EQ(out.bad_token.status, 403);
  EXPECT_EQ(out.bad_path.status, 404);
  EXPECT_EQ(out.bad_method.status, 405);
  EXPECT_EQ(out.bad_parse.status, 400);
  EXPECT_TRUE(out.restored);
}

TEST(RestProxyTest, FailedCheckpointComesBackAsServerError) {
  // Kill the only data provider's node first: the COMMIT cannot reach the
  // repository, and the frontend must turn that into a 500, with the VM
  // resumed (§3.3).
  CloudConfig cfg = tiny_cfg();
  cfg.compute_nodes = 1;  // a single provider, easy to kill
  Cloud cloud(cfg);
  WireResponse resp;
  bool vm_running = false;

  cloud.run([](Cloud* cl, WireResponse* resp, bool* vm_running) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    co_await dep.deploy_and_boot();
    Deployment::Instance& inst = dep.instance(0);
    RestProxyFrontend rest(*inst.proxy, "t");

    guestfs::SimpleFs* fs = dep.vm(0).fs();
    co_await fs->write_file("/data/x.bin", Buffer::pattern(100'000, 1));
    co_await fs->sync();
    cl->blob_store()->fail_node(inst.node);

    WireRequest req;
    req.method = "POST";
    req.path = "/checkpoint";
    req.params["token"] = "t";
    *resp = parse_response(co_await rest.handle(encode_request(req),
                                                *inst.vm, *inst.mirror));
    *vm_running = !inst.vm->paused() && !inst.vm->destroyed();
  }(&cloud, &resp, &vm_running));

  EXPECT_EQ(resp.status, 500);
  EXPECT_FALSE(resp.fields.at("error").empty());
  EXPECT_TRUE(vm_running);
}

}  // namespace
}  // namespace blobcr::core
