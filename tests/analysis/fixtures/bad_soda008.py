"""Violates SODA008: task loops whose only blocking step is idle()."""

from repro.core import ClientProgram


class Spinner(ClientProgram):
    def handler(self, api, event):
        if event.is_arrival:
            self.items.append(event.arg)
            yield from api.accept_current()

    def task(self, api):
        self.items = []
        while not self.items:
            yield api.idle()
        while True:
            if not self.items:
                yield api.idle()
                continue
            yield from api.close()
            self.items.pop()
            yield from api.open()
