"""Violates SODA005: discarded generators and SimFutures."""

from repro.core import ClientProgram
from repro.core.patterns import make_well_known_pattern

SERVICE = make_well_known_pattern(0o4322)


class ResultDropper(ClientProgram):
    def initialization(self, api, parent_mid):
        api.advertise(SERVICE)
        yield api.getuniqueid()

    def task(self, api):
        tid = yield from api.exchange(3, put=b"x", get_size=8)
        api.watch_completion(tid)
        result = yield from api.wait_completion(tid, api.new_future())
        del result
