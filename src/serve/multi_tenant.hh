/** @file Multi-tenant load is serve/load_gen.hh over a RegistryTarget;
    tenantReferenceOutputs, the per-tenant oracle, is declared there. */
#ifndef TIE_SERVE_MULTI_TENANT_HH
#define TIE_SERVE_MULTI_TENANT_HH
#include "serve/load_gen.hh"
#endif // TIE_SERVE_MULTI_TENANT_HH
