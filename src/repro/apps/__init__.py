"""The paper's programmed examples (§4.4), as reusable applications.

1. two-way bounded buffer (producer/consumer with double buffering);
2. four-way bounded buffer (two device-attached clients, CTRL-S/CTRL-Q);
3. dining philosophers with deadlock detector and timeserver;
4. concurrent readers and writers (a moderator process);
5. a file service.
"""
