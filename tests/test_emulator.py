import socket
import threading
import time

import pytest

from tracemock.alignment import DEFAULT_SCORING, global_align
from tracemock.emulator import (EmulatorServer, RequestMatcher,
                                generate_response, match_request)
from tracemock.errors import EmptyInputError
from tracemock.fields import (SymmetricField, find_symmetric_fields,
                              project_field, substitute_response)
from tracemock.framing import FramingConfig, MessageStream
from tracemock.harness import (PAPER_ADD_INDICES, PAPER_SEARCH_INDICES,
                               default_protocol_spec, paper_example_library,
                               synthetic_library)
from tracemock.model import (MatchingNode, OpaqueServiceModel, Prototype,
                             build_model)
from tracemock.trace import Transaction


@pytest.fixture(scope="module")
def paper_model():
    return build_model(paper_example_library(), 2)


@pytest.fixture(scope="module")
def paper_matcher(paper_model):
    return RequestMatcher(paper_model)


def make_node(cluster_id, proto_bytes, request, response, min_len=4):
    prototype = Prototype(tuple(proto_bytes), tuple(range(len(proto_bytes))))
    weights = (1.0,) * len(proto_bytes)
    centroid = Transaction(cluster_id, request, response)
    fields = find_symmetric_fields(request, response, min_len)
    return MatchingNode(cluster_id, prototype, weights, centroid, fields)


class TestFindSymmetricFields:
    def test_no_common_run(self):
        assert find_symmetric_fields(b"XYZ", b"ABC") == ()

    def test_paper_centroid_field(self):
        fields = find_symmetric_fields(b"{id:24,op:A,sn:Schneider,mobile:123456}",
                                       b"{id:24,op:AddRsp,result:Ok}")
        assert len(fields) == 1
        f = fields[0]
        assert (f.request_offset, f.request_length) == (0, len(b"{id:24,op:A"))
        assert (f.response_offset, f.response_length) == (0, len(b"{id:24,op:A"))

    def test_identical_messages_one_full_field(self):
        fields = find_symmetric_fields(b"HEADER1234", b"HEADER1234")
        assert fields == (SymmetricField(0, 10, 0, 10),)

    def test_min_length_excludes_short_runs(self):
        assert find_symmetric_fields(b"abcXdef", b"abcYdef", min_length=4) == ()
        got = find_symmetric_fields(b"abcXdef", b"abcYdef", min_length=3)
        assert {(f.request_offset, f.request_length) for f in got} \
            == {(0, 3), (4, 3)}

    def test_response_ranges_never_overlap(self):
        fields = find_symmetric_fields(b"abcdefabcdef", b"abcdefabcdef", 4)
        spans = sorted((f.response_offset, f.response_offset + f.response_length)
                       for f in fields)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_longest_first_and_deterministic(self):
        req = b"shortAAAAlongerBBBBBBB"
        rsp = b"xxBBBBBBByyAAAAzz"
        fields = find_symmetric_fields(req, rsp, 4)
        lengths = sorted((f.response_length for f in fields), reverse=True)
        assert lengths[0] == 7
        assert fields == find_symmetric_fields(req, rsp, 4)


class TestGenerateResponse:
    def test_paper_final_response(self, paper_matcher):
        node = next(n for n in paper_matcher.nodes if n.centroid.index == 24)
        out = generate_response(node, b"{id:37,op:A,sn:Durand}")
        assert out == b"{id:37,op:AddRsp,result:Ok}"

    def test_identity_request_returns_recorded_response(self, paper_matcher):
        for node in paper_matcher.nodes:
            assert generate_response(node, node.centroid.request) \
                == node.centroid.response

    def test_longer_id_stretches_projection(self, paper_matcher):
        node = next(n for n in paper_matcher.nodes if n.centroid.index == 24)
        out = generate_response(node, b"{id:9999,op:A,sn:Q}")
        assert out.startswith(b"{id:9999,op:AddRsp")

    def test_bytes_outside_fields_unchanged(self, paper_matcher):
        node = next(n for n in paper_matcher.nodes if n.centroid.index == 24)
        out = generate_response(node, b"{id:555,op:A,sn:Zu}")
        field = node.fields[0]
        tail = node.centroid.response[field.response_offset + field.response_length:]
        assert out.endswith(tail)

    def test_empty_projection_falls_back_to_recorded(self):
        node = make_node(0, b"zzzz", b"AAAA1234", b"xx1234yy")
        # the live request aligns wholly onto the AAAA prefix, so the 1234
        # field projects to nothing and the recorded bytes are kept
        out = generate_response(node, b"AAAA")
        assert out == b"xx1234yy"

    def test_deterministic(self, paper_matcher):
        node = paper_matcher.nodes[0]
        outs = {generate_response(node, b"{id:8,op:S,sn:Li}") for _ in range(4)}
        assert len(outs) == 1


class TestProjectField:
    def test_projection_spans_insertions(self):
        aln = global_align(b"{id:9999,op:A", b"{id:24,op:A")
        field = SymmetricField(0, 11, 0, 11)
        assert project_field(aln, field) == b"{id:9999,op:A"

    def test_live_value_longer_than_recorded_is_echoed_whole(self):
        lib, _ = synthetic_library(default_protocol_spec(), 300, seed=11)
        matcher = RequestMatcher(build_model(lib, 5))
        reply, _ = matcher.respond(b"{id:86196,op:D,sn:Whitaker}")
        assert b"removed:Whitaker" in reply

    def test_projection_takes_live_bytes_bordering_the_field(self):
        aln = global_align(b"xWhitaker}", b"xWhite}")
        field = SymmetricField(1, 5, 0, 5)
        assert project_field(aln, field) == b"Whitaker"

    def test_substitute_multiple_fields(self):
        req = b"AAAA-BBBB"
        rsp = b"xBBBByAAAAz"
        fields = find_symmetric_fields(req, rsp, 4)
        out = substitute_response(b"CCCC-DDDD", req, rsp, fields)
        assert out == b"xDDDDyCCCCz"


class TestMatchRequest:
    def test_exact_wildcard_free_prototype_distance_zero(self):
        node = make_node(0, b"PING", b"PING", b"PONG")
        other = make_node(1, b"HELO", b"HELO", b"OLEH")
        model = OpaqueServiceModel((node, other), DEFAULT_SCORING, 0.8)
        out = match_request(model, b"PING")
        assert out.chosen == 0
        assert dict(out.distances)[0] == 0.0

    def test_exact_match_with_uneven_weights_distance_zero(self):
        # Summing these weights rounds below the DP's own path, which left
        # an exact match at 2.2e-16 instead of 0.
        proto = tuple(b"acccaabc")
        weights = (0.678744846397139, 0.7264632954876644, 0.4746045363420724,
                   0.16084714078779133, 0.7961378716446719, 0.12635399609282238,
                   0.5066091852984449, 0.6973982398428363)
        node = MatchingNode(0, Prototype(proto, tuple(range(len(proto)))), weights,
                            Transaction(0, b"acccaabc", b"ok"), ())
        model = OpaqueServiceModel((node,), DEFAULT_SCORING, 0.8)
        assert match_request(model, b"acccaabc").distances == ((0, 0.0),)

    def test_paper_request_selects_add(self, paper_matcher, paper_model):
        out = paper_matcher.match(b"{id:37,op:A,sn:Durand}")
        add_id = next(n.cluster_id for n in paper_model.nodes
                      if n.centroid.index == 24)
        search_id = next(n.cluster_id for n in paper_model.nodes
                         if n.centroid.index != 24)
        d = dict(out.distances)
        assert out.chosen == add_id
        assert d[add_id] < d[search_id]

    def test_every_training_request_matches_own_cluster(self, paper_matcher,
                                                        paper_model):
        lib = paper_example_library()
        cluster_of = {}
        for node in paper_model.nodes:
            members = (PAPER_ADD_INDICES if node.centroid.index == 24
                       else PAPER_SEARCH_INDICES)
            for m in members:
                cluster_of[m] = node.cluster_id
        for tx in lib:
            assert paper_matcher.match(tx.request).chosen == cluster_of[tx.index]

    def test_covers_every_node(self, paper_matcher):
        out = paper_matcher.match(b"{id:1,op:S,sn:Du}")
        assert sorted(c for c, _ in out.distances) \
            == sorted(n.cluster_id for n in paper_matcher.nodes)

    def test_empty_request_rejected(self, paper_model):
        with pytest.raises(EmptyInputError):
            match_request(paper_model, b"")

    def test_weight_rescaling_never_changes_argmin(self, paper_model,
                                                   paper_matcher):
        lib = paper_example_library()
        scaled_nodes = []
        for i, node in enumerate(paper_model.nodes):
            factor = 5.0 if i == 0 else 1.0
            scaled_nodes.append(MatchingNode(
                node.cluster_id, node.prototype,
                tuple(w * factor for w in node.weights),
                node.centroid, node.fields))
        scaled = OpaqueServiceModel(tuple(scaled_nodes), paper_model.scoring,
                                    paper_model.threshold)
        scaled_matcher = RequestMatcher(scaled)
        for tx in lib:
            assert scaled_matcher.match(tx.request).chosen \
                == paper_matcher.match(tx.request).chosen


class TestServer:
    def test_loopback_paper_exchange(self, paper_model):
        server = EmulatorServer(paper_model, ("127.0.0.1", 0),
                                FramingConfig("delimiter", delimiter=b"}"))
        host, port = server.start()
        try:
            with socket.create_connection((host, port), timeout=5) as sock:
                stream = MessageStream(sock, FramingConfig("delimiter",
                                                           delimiter=b"}"))
                stream.write(b"{id:37,op:A,sn:Durand}")
                assert stream.read() == b"{id:37,op:AddRsp,result:Ok}"
                stream.write(b"{id:12,op:S,sn:Du}")
                reply = stream.read()
                assert reply.startswith(b"{id:12,op:SearchRsp")
        finally:
            server.stop()

    def test_connect_and_close_without_sending(self, paper_model):
        server = EmulatorServer(paper_model, ("127.0.0.1", 0))
        host, port = server.start()
        try:
            with socket.create_connection((host, port), timeout=5):
                pass  # clean close, no request
        finally:
            server.stop()

    def test_concurrent_connections(self, paper_model):
        framing = FramingConfig("length", length_prefix_bytes=4)
        server = EmulatorServer(paper_model, ("127.0.0.1", 0), framing)
        host, port = server.start()
        failures = []

        def client(worker: int):
            try:
                with socket.create_connection((host, port), timeout=10) as sock:
                    stream = MessageStream(sock, framing)
                    for i in range(5):
                        stream.write(b"{id:%d,op:A,sn:W%d}" % (worker, i))
                        reply = stream.read()
                        expected = b"{id:%d,op:AddRsp,result:Ok}" % worker
                        if reply != expected:
                            failures.append((worker, i, reply))
            except Exception as exc:  # noqa: BLE001 - collected for assertion
                failures.append((worker, "exc", repr(exc)))

        threads = [threading.Thread(target=client, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        server.stop()
        assert failures == []

    def test_accepted_connections_set_nodelay(self, paper_model):
        framing = FramingConfig("length", length_prefix_bytes=4)
        server = EmulatorServer(paper_model, ("127.0.0.1", 0), framing)
        host, port = server.start()
        try:
            with socket.create_connection((host, port), timeout=5) as sock:
                stream = MessageStream(sock, framing)
                stream.write(b"{id:1,op:A,sn:Fast}")
                assert stream.read() == b"{id:1,op:AddRsp,result:Ok}"
                (writer,) = server._writers
                accepted = writer.get_extra_info("socket")
                assert accepted.getsockopt(socket.IPPROTO_TCP,
                                           socket.TCP_NODELAY) != 0
        finally:
            server.stop()

    def test_sequential_connections_leave_no_threads(self, paper_model):
        framing = FramingConfig("length", length_prefix_bytes=4)
        before = threading.active_count()
        server = EmulatorServer(paper_model, ("127.0.0.1", 0), framing)
        host, port = server.start()
        try:
            for i in range(200):
                with socket.create_connection((host, port), timeout=5) as sock:
                    stream = MessageStream(sock, framing)
                    stream.write(b"{id:%d,op:A,sn:Seq}" % i)
                    assert stream.read() == b"{id:%d,op:AddRsp,result:Ok}" % i
            # The event-loop thread is the only one the server runs.  Threads
            # left by earlier tests can only end, so the counts are bounds.
            assert threading.active_count() <= before + 1
        finally:
            server.stop()
        assert threading.active_count() <= before

    def test_stop_closes_idle_peers_promptly(self, paper_model):
        framing = FramingConfig("delimiter", delimiter=b"}")
        server = EmulatorServer(paper_model, ("127.0.0.1", 0), framing)
        host, port = server.start()
        peers = []
        try:
            for i in range(4):
                sock = socket.create_connection((host, port), timeout=5)
                peers.append(sock)
                stream = MessageStream(sock, framing)
                stream.write(b"{id:%d,op:A,sn:Idle}" % i)
                assert stream.read() == b"{id:%d,op:AddRsp,result:Ok}" % i
            started = time.perf_counter()
            server.stop()
            assert time.perf_counter() - started < 1.0
            for sock in peers:
                sock.settimeout(5)
                assert sock.recv(1) == b""
        finally:
            server.stop()
            for sock in peers:
                sock.close()
