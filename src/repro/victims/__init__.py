"""Victim applications for the MetaLeak case studies (Section VIII).

Each victim runs "on" a :class:`~repro.proc.SecureProcessor` through a
:class:`~repro.os.Process` / :class:`~repro.sgx.Enclave`, placing its
secret-dependent variables (or function code) on distinct pages so the
paper's leak gadgets are reproduced faithfully:

* :mod:`repro.victims.jpeg` — a libjpeg-style encoder whose
  ``encode_one_block`` loop touches the ``r`` page for zero coefficients
  and the ``nbits`` page for non-zero ones (Listing 1);
* :mod:`repro.victims.rsa` — libgcrypt-style square-and-multiply modular
  exponentiation with the two functions on separate code pages;
* :mod:`repro.victims.mbedtls` — mbedTLS-style private-key loading whose
  modular inversion alternates page-distinct shift and subtract routines.
"""

from repro.victims.jpeg.encoder import JpegVictim
from repro.victims.mbedtls import KeyLoadVictim, recover_secret_from_trace
from repro.victims.rsa import RsaModexpVictim

__all__ = [
    "JpegVictim",
    "KeyLoadVictim",
    "recover_secret_from_trace",
    "RsaModexpVictim",
]
